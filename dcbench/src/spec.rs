//! The frozen parts of the benchmark: the four workloads with their
//! rates, the shape of a run, and the catalogue of metric names, units
//! and bounds that `BENCHMARK.json` repeats. Later issues refer to these
//! names verbatim.

use crate::oracle::JOIN_WINDOW;

/// Which query shape a workload runs (and so which oracle checks it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `select k, v, sent_us where v < 500` — wire workloads.
    Filter,
    /// 16 grouped aggregates over one stream.
    Multi,
    /// Two-stream count-window join.
    Join,
}

/// One workload and its frozen load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Tuples travel as text over TCP loopback (else in-process typed rows).
    pub wire: bool,
    /// The input basket is `overflow spill 16384 persistent`.
    pub durable: bool,
    /// Open-loop rate `R`, tuples/s: about 30 % of the seed commit's
    /// `throughput_tps`, 2 significant figures.
    pub open_rate: u64,
    /// Saturation tuples per second of `--seconds`: sized so the
    /// saturation phase takes about 40 % of the run on the seed commit.
    pub sat_per_run_second: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_filter",
        kind: Kind::Filter,
        wire: true,
        durable: false,
        open_rate: 350_000,
        sat_per_run_second: 790_000,
    },
    Workload {
        name: "embedded_multiquery",
        kind: Kind::Multi,
        wire: false,
        durable: false,
        open_rate: 60_000,
        sat_per_run_second: 940_000,
    },
    Workload {
        name: "durable_wire",
        kind: Kind::Filter,
        wire: true,
        durable: true,
        open_rate: 150_000,
        sat_per_run_second: 350_000,
    },
    Workload {
        name: "window_join",
        kind: Kind::Join,
        wire: false,
        durable: false,
        open_rate: 120_000,
        sat_per_run_second: 350_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every basket the benchmark creates is bounded at this many tuples
/// (the one builder setting besides `listen`/`data_dir`).
pub const BASKET_CAPACITY: usize = 65_536;
/// In-memory budget of `durable_wire`'s spill basket.
pub const SPILL_ROWS: usize = 16_384;
/// Key domains.
pub const FILTER_KEYS: u64 = 1_024;
pub const JOIN_KEYS: u64 = 1_024;
/// Share of join tuples carrying the hot key 0, in percent.
pub const JOIN_HOT_PCT: u64 = 10;
/// Tuples replayed by the traced run, and its batch size.
pub const REPLAY_TUPLES: usize = 200_000;
pub const REPLAY_BATCH: usize = 1_024;
/// Rows acknowledged but left undelivered before `durable_wire` stops,
/// which `recover()` must bring back exactly.
pub const RECOVERY_ROWS: usize = 50_000;
/// Latency windows after the warm-up, and saturation bursts.
pub const WINDOWS: usize = 8;
pub const BURSTS: usize = 10;
/// A result later than this (or missing) misses its deadline.
pub const DEADLINE_US: u64 = 50_000;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 21;

/// Tuple counts are multiples of this so no join window straddles two
/// phases.
const ROUND: u64 = 2 * JOIN_WINDOW as u64;

/// The shape of one run, derived from `--seconds`: half of it open loop
/// (a fifth of that warm-up, the rest cut into [`WINDOWS`] windows), then
/// [`BURSTS`] saturation bursts sized to fill about 40 % on the seed
/// commit; the rest is slack for draining and checking.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Open-loop ticks (ms) in the warm-up and in each window.
    pub warm_ticks: u64,
    pub window_ticks: u64,
    /// Tuples per saturation burst.
    pub burst_tuples: u64,
}

impl Plan {
    pub fn new(w: &Workload, seconds: u64) -> Plan {
        // Half the run is open loop; a fifth of that is warm-up.
        let warm = (seconds * 1_000 / 10).max(1);
        let burst = w.sat_per_run_second * seconds / BURSTS as u64;
        Plan {
            warm_ticks: warm,
            window_ticks: (4 * warm / WINDOWS as u64).max(1),
            burst_tuples: (burst / ROUND).max(1) * ROUND,
        }
    }

    pub fn open_ticks(&self) -> u64 {
        self.warm_ticks + WINDOWS as u64 * self.window_ticks
    }

    /// Open-loop tuples: what the schedule makes due in the phase, cut
    /// back to a whole number of join windows.
    pub fn open_tuples(&self, due: u64) -> u64 {
        due / ROUND * ROUND
    }

    /// Latency window of a tuple due at `due_us`; `None` in the warm-up.
    pub fn window_of(&self, due_us: u64) -> Option<usize> {
        let tick = due_us / 1_000;
        let w = tick.checked_sub(self.warm_ticks)? / self.window_ticks;
        Some((w as usize).min(WINDOWS - 1))
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric: reported per workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_tps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_tuple",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit)`: reported by the traced run, never
/// gated. The first three are end-to-end metrics of the issue that are
/// reported but not gated, under their own names: `latency_p99_us` does
/// not hold a bound on this host (see the README's observed spreads),
/// `failed_ops_ratio` is 0 by design and `recovery_s` exists live on one
/// workload only, and the benchmark contract wants every gated metric
/// non-zero on every workload.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("latency_p99_us", "us"),
    ("failed_ops_ratio", "ratio"),
    ("recovery_s", "s"),
    ("text.decode_ns_per_tuple", "ns"),
    ("text.encode_ns_per_row", "ns"),
    ("basket.append_ns_per_tuple", "ns"),
    ("basket.claim_commit_ns_per_row", "ns"),
    ("scheduler.pass_self_ns_per_tuple", "ns"),
    ("scheduler.idle_pass_us", "us"),
    ("factory.step_ns_per_tuple", "ns"),
    ("window_join.step_ns_per_tuple", "ns"),
    ("bat.select_range_gb_s", "GB/s"),
    ("bat.group_agg_mtuples_s", "Mtuples/s"),
    ("bat.hash_join_mtuples_s", "Mtuples/s"),
    ("storage.wal_append_ns_per_tuple", "ns"),
    ("storage.wal_sync_us_per_commit", "us"),
    ("storage.wal_bytes_per_tuple", "B"),
    ("storage.codec_encode_mb_s", "MB/s"),
    ("storage.codec_decode_mb_s", "MB/s"),
    ("storage.segment_seal_mb_s", "MB/s"),
    ("storage.segment_read_mb_s", "MB/s"),
    ("baseline.push_ns_per_tuple", "ns"),
    ("bulk_vs_tuple_ratio", "ratio"),
    ("sql.register_query_ms", "ms"),
    ("trace.path_ns_per_tuple", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("net.ingest_ack_tps", "1/s"),
    ("net.handshake_ms", "ms"),
    ("emitter.first_result_ms", "ms"),
    ("gen.offered_tps", "1/s"),
    ("gen.lateness_p99_us", "us"),
    ("basket.in_backlog_max", "count"),
    ("basket.in_backlog_end", "count"),
    ("basket.out_backlog_max", "count"),
    ("deadline_miss_ratio", "ratio"),
    ("latency_p999_us", "us"),
    ("scheduler.passes", "count"),
    ("scheduler.firings", "count"),
    ("scheduler.tuples_per_firing", "count"),
    ("scheduler.sched_delay_us_per_firing", "us"),
    ("scheduler.deferrals", "count"),
    ("factory.busy_share", "ratio"),
    ("exec.worker_busy_mean", "ratio"),
    ("exec.steals", "count"),
    ("exec.firings_parallel", "count"),
    ("basket.overflow_events", "count"),
    ("planshare.shared_subplans", "count"),
    ("net.tuples_in", "count"),
    ("net.tuples_out", "count"),
    ("net.lines_rejected", "count"),
    ("storage.tuples_spilled", "count"),
    ("storage.segments_written", "count"),
    ("storage.segments_read", "count"),
    ("storage.bytes_on_disk_peak", "B"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scales_with_seconds_and_keeps_join_windows_whole() {
        let w = workload("window_join").unwrap();
        let p = Plan::new(w, 15);
        assert_eq!(p.open_ticks(), 7_500);
        assert_eq!(p.burst_tuples % ROUND, 0);
        assert_eq!(p.open_tuples(1_000_001) % ROUND, 0);
        let q = Plan::new(w, 5);
        assert!(q.burst_tuples * 3 <= p.burst_tuples + 3 * ROUND);
    }

    #[test]
    fn windows_start_after_the_warm_up() {
        let p = Plan::new(&WORKLOADS[0], 10);
        assert_eq!(p.window_of(0), None);
        assert_eq!(p.window_of(999_999), None);
        assert_eq!(p.window_of(1_000_000), Some(0));
        assert_eq!(p.window_of(1_500_000), Some(1));
        assert_eq!(p.window_of(4_999_000), Some(WINDOWS - 1));
    }

    #[test]
    fn names_are_unique_and_benchmark_json_lists_them_all() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for n in names {
            assert!(
                json.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        for m in END_TO_END {
            let needle = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            let at = json.find(&needle).unwrap_or_else(|| panic!("{needle}"));
            let line = &json[at..json[at..].find('}').map_or(json.len(), |e| at + e)];
            assert!(line.contains(&format!("\"bound\": {}", m.bound)), "{line}");
        }
    }
}
