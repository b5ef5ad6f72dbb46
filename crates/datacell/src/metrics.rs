//! Measurement infrastructure for the evaluation harness: latency
//! histograms and throughput meters.

use std::sync::atomic::{AtomicU64, Ordering};

use datacell_bat::types::NIL_INT;

use crate::clock::Clock;

/// A log-scaled latency histogram (microseconds) with exact totals.
///
/// Buckets are powers of two: bucket `i` covers `[2^i, 2^(i+1))` µs, which
/// spans 1 µs to ~1 hour in 32 buckets — plenty for stream latencies, with
/// O(1) record cost and no allocation on the hot path.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 40],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket(micros: u64) -> usize {
        (64 - micros.max(1).leading_zeros() as usize - 1).min(39)
    }

    /// Record one latency observation in microseconds.
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Record the latency `now - t` (clamped at 0) of every non-nil
    /// arrival stamp `t` in `ts` — the same result as one [`record`] per
    /// stamp, with one atomic update per touched bucket and per total
    /// instead of four per stamp.
    ///
    /// [`record`]: LatencyHistogram::record
    pub fn record_many(&self, ts: &[i64], now: i64) {
        let mut buckets = [0u64; 40];
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for &t in ts {
            if t == NIL_INT {
                continue;
            }
            let micros = now.saturating_sub(t).max(0) as u64;
            buckets[Self::bucket(micros)] += 1;
            count += 1;
            sum = sum.wrapping_add(micros);
            max = max.max(micros);
        }
        if count == 0 {
            return;
        }
        for (b, n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Maximum observed latency in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile, `q` in `[0, 1]`. Returns the covering
    /// bucket's upper bound, clamped to the exact observed maximum — a
    /// bucket bound above everything ever recorded would over-report (a
    /// uniform 10 µs workload lands in bucket `[8, 16)`, and without the
    /// clamp its p99 would read as 16 µs).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return (1u64 << (i + 1)).min(self.max_micros());
            }
        }
        self.max_micros()
    }

    /// Sum of all observations in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram: per-bucket counts with their
    /// upper bounds, totals, and the exact maximum. The bucket bounds are
    /// exactly the Prometheus `le=` bounds of the exported histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((1u64 << (i + 1), n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum_micros: self.sum_micros(),
            max_micros: self.max_micros(),
        }
    }
}

/// Frozen copy of a [`LatencyHistogram`], embedded in
/// [`MetricsSnapshot`] and rendered as a Prometheus histogram by the
/// `datacell-net` HTTP endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(upper_bound_micros, count)`, ascending. The
    /// bound is exclusive at record time (`[2^i, 2^(i+1))`), which makes
    /// it usable directly as an inclusive Prometheus `le=` bound.
    pub buckets: Vec<(u64, u64)>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations in microseconds.
    pub sum_micros: u64,
    /// Exact maximum observation in microseconds.
    pub max_micros: u64,
}

impl HistogramSnapshot {
    /// Approximate quantile over the frozen buckets, with the same
    /// max-clamp as [`LatencyHistogram::quantile_micros`].
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bound.min(self.max_micros);
            }
        }
        self.max_micros
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_micros as f64 / self.count as f64
    }
}

/// Throughput meter: tuples per second since it was made.
#[derive(Debug)]
pub struct Throughput {
    /// Engine-clock nanoseconds at creation.
    started: u64,
    tuples: AtomicU64,
}

impl Default for Throughput {
    fn default() -> Self {
        Self::new()
    }
}

impl Throughput {
    /// Start measuring now.
    pub fn new() -> Self {
        Throughput {
            started: Clock::System.now_nanos(),
            tuples: AtomicU64::new(0),
        }
    }

    /// Count `n` processed tuples.
    pub fn add(&self, n: u64) {
        self.tuples.fetch_add(n, Ordering::Relaxed);
    }

    /// Tuples counted so far.
    pub fn total(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }

    /// Tuples per second since start.
    pub fn rate(&self) -> f64 {
        match Clock::System.now_nanos().saturating_sub(self.started) {
            0 => 0.0,
            elapsed => self.total() as f64 * 1e9 / elapsed as f64,
        }
    }
}

/// Session-wide traffic and latency counters, shared by every
/// [`StreamWriter`](crate::client::StreamWriter) and subscription emitter
/// of one [`DataCell`](crate::DataCell) when metrics are enabled through
/// [`DataCellBuilder::metrics`](crate::client::DataCellBuilder::metrics).
#[derive(Debug, Default)]
pub struct SessionMetrics {
    /// Tuples accepted by writers.
    pub ingested: Throughput,
    /// Tuples delivered to subscriptions.
    pub delivered: Throughput,
    /// Basket-entry → subscription-delivery latency per delivered tuple.
    pub latency: LatencyHistogram,
}

/// A provider of network-transport counters, implemented by the TCP
/// server in `datacell-net` and registered on the session through
/// [`DataCell::register_net_metrics`](crate::DataCell::register_net_metrics)
/// so [`DataCell::metrics`](crate::DataCell::metrics) can fold
/// per-connection traffic into one snapshot. Defined here (not in the
/// transport crate) because the session owns the metrics surface while the
/// transport depends on the session, not the other way around.
pub trait NetMetricsSource: Send + Sync {
    /// Current transport counters.
    fn net_metrics(&self) -> NetMetricsSnapshot;
}

/// What a network connection is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetConnectionKind {
    /// `STREAM`: the client pushes tuples into a basket.
    Ingest,
    /// `SUBSCRIBE`: the client receives a continuous query's results.
    Subscribe,
    /// Connected but the handshake line has not arrived yet.
    Handshaking,
}

impl std::fmt::Display for NetConnectionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NetConnectionKind::Ingest => "ingest",
            NetConnectionKind::Subscribe => "subscribe",
            NetConnectionKind::Handshaking => "handshaking",
        })
    }
}

/// Traffic counters of one live TCP connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConnectionMetrics {
    /// Server-assigned connection id (monotone per listener).
    pub id: u64,
    /// Peer address (`ip:port`).
    pub peer: String,
    /// Ingest or subscribe.
    pub kind: NetConnectionKind,
    /// The basket (ingest) or continuous query (subscribe) served.
    pub target: String,
    /// Tuples moved over this connection (in for ingest, out for
    /// subscribe).
    pub tuples: u64,
    /// Malformed lines refused with an `ERR decode` reply (ingest only).
    pub rejected: u64,
    /// Basket appends the connection made (ingest only); `tuples /
    /// appends` is the batch its socket reads delivered.
    pub appends: u64,
}

/// Aggregated network-transport counters plus the per-connection accounts,
/// surfaced through [`MetricsSnapshot::net`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetMetricsSnapshot {
    /// The listener's bound address.
    pub local_addr: String,
    /// Connections ever accepted.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Tuples ingested over all `STREAM` connections (ever).
    pub tuples_in: u64,
    /// Tuples delivered over all `SUBSCRIBE` connections (ever).
    pub tuples_out: u64,
    /// Malformed ingest lines refused with an `ERR decode` reply (ever).
    pub lines_rejected: u64,
    /// Basket appends over all `STREAM` connections (ever); `tuples_in /
    /// ingest_appends` is the mean batch the sockets delivered.
    pub ingest_appends: u64,
    /// Counters of every currently open connection.
    pub per_connection: Vec<NetConnectionMetrics>,
}

/// Point-in-time view of [`SessionMetrics`] plus scheduler counters,
/// returned by [`DataCell::metrics`](crate::DataCell::metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Tuples accepted by writers.
    pub tuples_ingested: u64,
    /// Writer ingest rate since session start (tuples/s).
    pub ingest_rate: f64,
    /// Tuples delivered to subscriptions.
    pub tuples_delivered: u64,
    /// Subscription delivery rate since session start (tuples/s).
    pub delivery_rate: f64,
    /// Mean delivery latency in microseconds.
    pub mean_latency_micros: f64,
    /// 99th-percentile delivery latency in microseconds (bucket bound,
    /// clamped to the observed maximum).
    pub p99_latency_micros: u64,
    /// Session-wide delivery latency histogram: output-basket entry →
    /// subscription delivery; input-basket entry when the query projects
    /// `ts`. Populated when
    /// [`DataCellBuilder::metrics`](crate::client::DataCellBuilder::metrics)
    /// is enabled.
    pub latency: HistogramSnapshot,
    /// Per-continuous-query delivery latency histograms (output-basket
    /// entry → delivery; input-basket entry when the query projects
    /// `ts`), one per query with at least one subscription, keyed by query
    /// name. Always recorded (independent of the session-metrics toggle):
    /// the `ts` rides on every tuple anyway, so attribution is free.
    pub per_query_latency: Vec<(String, HistogramSnapshot)>,
    /// Microseconds since the session was built — lets dashboards
    /// correlate counter resets with restarts.
    pub uptime_micros: u64,
    /// Scheduler passes executed.
    pub scheduler_passes: u64,
    /// Scheduler worker threads configured (1 = the sequential pass loop;
    /// more = the admission/execution split over the work-stealing pool).
    pub workers: usize,
    /// Firings dispatched to the parallel worker pool (ever). Zero while
    /// `workers == 1` even under load: inline firings are not parallel.
    pub firings_parallel: u64,
    /// Firings a pool worker took from a sibling's inbox rather than its
    /// own (ever) — how often work stealing rebalanced a skewed load.
    pub steals: u64,
    /// Per-worker busy fraction over the pool's lifetime so far, indexed
    /// by worker id, each in `[0, 1]` — the worker-sizing signal (all near
    /// 1.0: add workers or shed load; most near 0.0: pool oversized).
    /// Empty while the scheduler runs sequentially.
    pub worker_busy: Vec<f64>,
    /// Factory firings.
    pub factory_firings: u64,
    /// Factory step errors.
    pub factory_errors: u64,
    /// Factory steps deferred by output-basket backpressure.
    pub factory_deferrals: u64,
    /// Tuples dropped by `ShedOldest` baskets anywhere in the pipeline.
    pub tuples_shed: u64,
    /// Append calls that hit a full bounded basket (blocked or rejected).
    pub overflow_events: u64,
    /// Per-query scheduling accounts: firings, busy-time, tuples
    /// processed, deferrals, DRR weight, and the starvation alarms
    /// (`sched_delay_micros`, `consecutive_skips`) — these feed, and
    /// observe, the scheduler's DRR ring
    /// ([`SchedulePolicy`](crate::scheduler::SchedulePolicy)`::priority < 0`).
    pub per_query: Vec<crate::scheduler::SchedulerMetrics>,
    /// Active shared subplan nodes built by multi-query plan sharing
    /// ([`crate::DataCellBuilder::plan_sharing`] / `SET PLAN SHARING ON`):
    /// one per distinct consuming-scan prefix currently materialized into
    /// a shared intermediate basket.
    pub shared_subplans: u64,
    /// Per shared node: (intermediate basket name, subscriber count) —
    /// how many continuous queries consume each shared prefix.
    pub shared_subscribers: Vec<(String, u64)>,
    /// Network-transport counters, present when a TCP listener (the
    /// `datacell-net` crate) is attached to this session.
    pub net: Option<NetMetricsSnapshot>,
    /// Storage-subsystem counters (`tuples_spilled`,
    /// `segments_{written,read,deleted}`, `bytes_on_disk`, recovery
    /// stats), present when the session has a
    /// [`data_dir`](crate::client::DataCellBuilder::data_dir).
    pub storage: Option<StorageMetricsSnapshot>,
}

pub use datacell_storage::StorageMetricsSnapshot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_statistics() {
        let h = LatencyHistogram::new();
        for v in [1u64, 2, 4, 100, 1000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean_micros() - (11107.0 / 6.0)).abs() < 1e-9);
        assert_eq!(h.max_micros(), 10_000);
        // Median bucket upper bound covers the 3rd observation (4µs → bucket [4,8)).
        assert!(h.quantile_micros(0.5) >= 4);
        assert!(h.quantile_micros(1.0) >= 10_000 / 2);
        assert_eq!(LatencyHistogram::new().mean_micros(), 0.0);
    }

    #[test]
    fn histogram_zero_latency_is_clamped() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        // A uniform 10 µs workload lands entirely in bucket [8, 16); the
        // quantile must read 10 (the observed max), not the 16 µs bound.
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        assert_eq!(h.quantile_micros(0.5), 10);
        assert_eq!(h.quantile_micros(0.99), 10);
        assert_eq!(h.quantile_micros(1.0), 10);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(16, 100)]);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum_micros, 1000);
        assert_eq!(snap.quantile_micros(0.99), 10);
        assert!((snap.mean_micros() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn record_many_equals_one_record_per_stamp() {
        let now = 1_000_000;
        // Past stamps, a future one (`now < ts`, clamped to 0), one on
        // `now`, nils (skipped) and a far-past outlier.
        let ts = [
            now - 1,
            now - 3,
            now - 900,
            now + 25,
            now,
            NIL_INT,
            now - 70_000,
            NIL_INT,
            now - 3,
        ];
        let bulk = LatencyHistogram::new();
        bulk.record_many(&ts, now);
        let single = LatencyHistogram::new();
        for &t in ts.iter().filter(|&&t| t != NIL_INT) {
            single.record((now - t).max(0) as u64);
        }
        assert_eq!(bulk.snapshot(), single.snapshot());
        assert_eq!(bulk.count(), 7);
        bulk.record_many(&[NIL_INT], now);
        bulk.record_many(&[], now);
        assert_eq!(bulk.snapshot(), single.snapshot(), "nothing recorded");
    }

    #[test]
    fn throughput_counts() {
        let t = Throughput::new();
        t.add(100);
        t.add(50);
        assert_eq!(t.total(), 150);
        assert!(t.rate() > 0.0);
    }
}
