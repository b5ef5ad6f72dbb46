//! Receptors: threads at the input periphery (§2.1).
//!
//! "A receptor is a separate thread that continuously picks up incoming
//! events from a communication channel. It validates their structure and
//! forwards their content to the DataCell kernel for processing." The
//! communication channel is abstracted as a [`TupleSource`]; implementations
//! cover in-process channels (the CI-friendly default), textual CSV lines
//! (the paper's "textual interface for exchanging flat relational tuples"),
//! and synthetic generators for benchmarks.
//!
//! A receptor can fan one stream out to *several* baskets — that is exactly
//! the copy the separate-baskets strategy pays for (§2.5): one private
//! basket, and one consuming query, per consumer.
//!
//! **Backpressure.** Target baskets may be bounded
//! ([`OverflowPolicy`](crate::basket::OverflowPolicy)): a `Block` basket
//! holds the receptor thread until readers release space — stalling the
//! source end-to-end — while a `Reject` basket sheds the batch at the edge
//! (counted in [`ReceptorStats::rejected`], never fatal).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{Receiver, TryRecvError};
use datacell_bat::types::Value;
use datacell_sql::Schema;

use crate::basket::Basket;
use crate::error::{DataCellError, Result};
pub use crate::text::parse_tuple;

/// One fetch from a tuple source.
#[derive(Debug, Clone)]
pub enum SourceBatch {
    /// Tuples to ingest.
    Rows(Vec<Vec<Value>>),
    /// Nothing right now; poll again.
    Idle,
    /// The stream ended; the receptor thread exits.
    Exhausted,
}

/// Abstraction over the receptor's communication channel.
pub trait TupleSource: Send {
    /// Fetch up to `max` tuples.
    fn next_batch(&mut self, max: usize) -> SourceBatch;
}

/// A source fed by an in-process channel of rows.
pub struct ChannelSource {
    rx: Receiver<Vec<Value>>,
}

impl ChannelSource {
    /// Wrap a crossbeam receiver.
    pub fn new(rx: Receiver<Vec<Value>>) -> Self {
        ChannelSource { rx }
    }
}

impl TupleSource for ChannelSource {
    fn next_batch(&mut self, max: usize) -> SourceBatch {
        let mut rows = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok(row) => {
                    rows.push(row);
                    if rows.len() >= max {
                        break;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    return if rows.is_empty() {
                        SourceBatch::Exhausted
                    } else {
                        SourceBatch::Rows(rows)
                    };
                }
            }
        }
        if rows.is_empty() {
            SourceBatch::Idle
        } else {
            SourceBatch::Rows(rows)
        }
    }
}

/// A source of textual tuples (comma-separated values, `nil` for NULL),
/// validated against a user schema — the paper's flat textual interface.
pub struct TextSource {
    rx: Receiver<String>,
    schema: Schema,
    /// Lines that failed validation (counted, not fatal: a stream engine
    /// must survive malformed input).
    rejected: Arc<AtomicU64>,
}

impl TextSource {
    /// Wrap a channel of CSV lines validated against `user_schema`.
    pub fn new(rx: Receiver<String>, user_schema: Schema) -> Self {
        TextSource {
            rx,
            schema: user_schema,
            rejected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Counter of rejected (malformed) lines.
    pub fn rejected_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.rejected)
    }
}

impl TupleSource for TextSource {
    fn next_batch(&mut self, max: usize) -> SourceBatch {
        let mut rows = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok(line) => {
                    match parse_tuple(&line, &self.schema) {
                        Ok(row) => rows.push(row),
                        Err(_) => {
                            self.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if rows.len() >= max {
                        break;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    return if rows.is_empty() {
                        SourceBatch::Exhausted
                    } else {
                        SourceBatch::Rows(rows)
                    };
                }
            }
        }
        if rows.is_empty() {
            SourceBatch::Idle
        } else {
            SourceBatch::Rows(rows)
        }
    }
}

/// A synthetic generator source driven by a closure; yields `total` rows
/// then exhausts. Used by benchmarks and examples.
pub struct GeneratorSource<F: FnMut(u64) -> Vec<Value> + Send> {
    gen: F,
    produced: u64,
    total: u64,
}

impl<F: FnMut(u64) -> Vec<Value> + Send> GeneratorSource<F> {
    /// `gen(i)` produces the `i`-th row, for `i in 0..total`.
    pub fn new(total: u64, gen: F) -> Self {
        GeneratorSource {
            gen,
            produced: 0,
            total,
        }
    }
}

impl<F: FnMut(u64) -> Vec<Value> + Send> TupleSource for GeneratorSource<F> {
    fn next_batch(&mut self, max: usize) -> SourceBatch {
        if self.produced >= self.total {
            return SourceBatch::Exhausted;
        }
        let n = (self.total - self.produced).min(max as u64);
        let rows = (0..n).map(|k| (self.gen)(self.produced + k)).collect();
        self.produced += n;
        SourceBatch::Rows(rows)
    }
}

/// Monotone receptor counters.
#[derive(Debug, Default)]
pub struct ReceptorStats {
    /// Tuples ingested (counted once per tuple, not per fan-out copy).
    pub tuples: AtomicU64,
    /// Batches ingested.
    pub batches: AtomicU64,
    /// Tuples refused by a full `Reject`-policy basket (counted per
    /// fan-out copy that was turned away).
    pub rejected: AtomicU64,
}

/// A running receptor thread.
pub struct Receptor {
    name: String,
    stop: Arc<AtomicBool>,
    stats: Arc<ReceptorStats>,
    handle: Option<JoinHandle<()>>,
}

impl Receptor {
    /// Spawn a receptor pumping `source` into `targets` (fan-out copy per
    /// target), reading up to `batch_size` tuples per iteration.
    pub fn spawn(
        name: impl Into<String>,
        mut source: impl TupleSource + 'static,
        targets: Vec<Arc<Basket>>,
        batch_size: usize,
    ) -> Result<Receptor> {
        let name = name.into();
        if targets.is_empty() {
            return Err(DataCellError::Wiring(format!(
                "receptor {name}: needs at least one target basket"
            )));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ReceptorStats::default());
        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let thread_name = name.clone();
        let handle = std::thread::Builder::new()
            .name(format!("receptor-{name}"))
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    match source.next_batch(batch_size.max(1)) {
                        SourceBatch::Rows(rows) => {
                            for t in &targets {
                                match t.append_rows(&rows) {
                                    Ok(()) => {}
                                    // A full `Reject` basket sheds at the
                                    // edge: count it, keep pumping.
                                    Err(DataCellError::Backpressure { .. }) => {
                                        thread_stats
                                            .rejected
                                            .fetch_add(rows.len() as u64, Ordering::Relaxed);
                                    }
                                    // A malformed batch must not kill the
                                    // receptor; report and continue.
                                    Err(e) => eprintln!("receptor {thread_name}: {e}"),
                                }
                            }
                            thread_stats
                                .tuples
                                .fetch_add(rows.len() as u64, Ordering::Relaxed);
                            thread_stats.batches.fetch_add(1, Ordering::Relaxed);
                        }
                        SourceBatch::Idle => {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        SourceBatch::Exhausted => break,
                    }
                }
            })
            .map_err(|e| DataCellError::Runtime(format!("spawn receptor: {e}")))?;
        Ok(Receptor {
            name,
            stop,
            stats,
            handle: Some(handle),
        })
    }

    /// Receptor name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tuples ingested so far.
    pub fn tuples_ingested(&self) -> u64 {
        self.stats.tuples.load(Ordering::Relaxed)
    }

    /// Tuples refused by full `Reject`-policy target baskets so far.
    pub fn tuples_rejected(&self) -> u64 {
        self.stats.rejected.load(Ordering::Relaxed)
    }

    /// Ask the thread to stop and wait for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Wait for the source to exhaust (stream end) without signalling stop.
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Receptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use datacell_bat::types::DataType;

    fn basket() -> Arc<Basket> {
        Arc::new(
            Basket::new(
                "b",
                Schema::new(vec![
                    ("x".into(), DataType::Int),
                    ("s".into(), DataType::Str),
                ]),
            )
            .unwrap(),
        )
    }

    #[test]
    fn parse_tuple_types_and_nil() {
        let schema = Schema::new(vec![
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Float),
            ("c".into(), DataType::Str),
            ("d".into(), DataType::Bool),
        ]);
        let row = parse_tuple("1, 2.5, hello, true", &schema).unwrap();
        assert_eq!(
            row,
            vec![
                Value::Int(1),
                Value::Float(2.5),
                Value::Str("hello".into()),
                Value::Bool(true)
            ]
        );
        let row = parse_tuple("nil, NULL, x, f", &schema).unwrap();
        assert_eq!(row[0], Value::Nil);
        assert_eq!(row[1], Value::Nil);
        assert!(parse_tuple("1, 2.5, x", &schema).is_err());
        assert!(parse_tuple("oops, 2.5, x, t", &schema).is_err());
    }

    #[test]
    fn channel_receptor_pumps_rows() {
        let b = basket();
        let (tx, rx) = unbounded();
        let r = Receptor::spawn("r", ChannelSource::new(rx), vec![Arc::clone(&b)], 64).unwrap();
        for i in 0..10 {
            tx.send(vec![Value::Int(i), Value::Str(format!("s{i}"))])
                .unwrap();
        }
        drop(tx); // close stream
        r.join();
        assert_eq!(b.len(), 10);
        assert_eq!(b.stats().appended, 10);
    }

    #[test]
    fn text_receptor_validates_and_counts_rejects() {
        let b = basket();
        let (tx, rx) = unbounded();
        let schema = Schema::new(vec![
            ("x".into(), DataType::Int),
            ("s".into(), DataType::Str),
        ]);
        let src = TextSource::new(rx, schema);
        let rejected = src.rejected_counter();
        let r = Receptor::spawn("r", src, vec![Arc::clone(&b)], 64).unwrap();
        tx.send("1, one".to_string()).unwrap();
        tx.send("garbage".to_string()).unwrap();
        tx.send("2, two".to_string()).unwrap();
        drop(tx);
        r.join();
        assert_eq!(b.len(), 2);
        assert_eq!(rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn generator_source_fans_out_to_multiple_baskets() {
        let b1 = basket();
        let b2 = Arc::new(
            Basket::new(
                "b2",
                Schema::new(vec![
                    ("x".into(), DataType::Int),
                    ("s".into(), DataType::Str),
                ]),
            )
            .unwrap(),
        );
        let src = GeneratorSource::new(100, |i| vec![Value::Int(i as i64), Value::Str("g".into())]);
        let r = Receptor::spawn("gen", src, vec![Arc::clone(&b1), Arc::clone(&b2)], 16).unwrap();
        r.join();
        assert_eq!(b1.len(), 100);
        assert_eq!(b2.len(), 100, "fan-out copies the stream per basket");
    }

    #[test]
    fn stop_terminates_idle_receptor() {
        let b = basket();
        let (_tx, rx) = unbounded::<Vec<Value>>();
        let r = Receptor::spawn("r", ChannelSource::new(rx), vec![b], 8).unwrap();
        assert_eq!(r.name(), "r");
        r.stop(); // returns despite the channel staying open
    }
}
