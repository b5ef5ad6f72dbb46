//! The Linear Road run harness: drive L expressways through the system,
//! measure response times against the benchmark's 5-second rule, and find
//! the sustainable L-rating.

use std::time::Instant;

use crate::gen::{TrafficConfig, TrafficSim};
use crate::pipeline::LinearRoadSystem;
use crate::validator::{validate, ValidationReport};

/// Results of one Linear Road run.
#[derive(Debug, Clone)]
pub struct LrReport {
    /// Expressways simulated.
    pub xways: usize,
    /// Input records fed.
    pub records: usize,
    /// Toll notifications produced.
    pub tolls: usize,
    /// Accident alerts produced.
    pub accident_alerts: usize,
    /// Balance answers produced.
    pub balances: usize,
    /// Daily-expenditure answers produced.
    pub dailies: usize,
    /// Wall-clock processing time in seconds.
    pub wall_s: f64,
    /// Records processed per wall-clock second.
    pub throughput: f64,
    /// Mean response time in µs (input append → output emission).
    pub mean_response_micros: f64,
    /// Maximum response time in µs.
    pub max_response_micros: u64,
    /// Input rate the simulated traffic represents (records per simulated
    /// second).
    pub realtime_rate: f64,
    /// `throughput / realtime_rate`: > 1 means the system keeps up with
    /// real time at this L; the benchmark's 5 s deadline is then met with
    /// enormous headroom.
    pub headroom: f64,
    /// Correctness check against the reference implementation.
    pub validation: ValidationReport,
}

impl LrReport {
    /// Whether the run met the deadline and validated.
    pub fn passed(&self) -> bool {
        self.validation.passed() && self.max_response_micros < 5_000_000
    }

    /// One table row for the experiment output.
    pub fn table_row(&self) -> String {
        format!(
            "L={:<3} records={:<8} tolls={:<7} alerts={:<5} wall={:.3}s thr={:>10.0} rec/s \
             resp(mean={:.1}ms max={:.1}ms) headroom={:>7.1}x valid={}",
            self.xways,
            self.records,
            self.tolls,
            self.accident_alerts,
            self.wall_s,
            self.throughput,
            self.mean_response_micros / 1000.0,
            self.max_response_micros as f64 / 1000.0,
            self.headroom,
            self.validation.passed()
        )
    }
}

/// Run Linear Road at `xways` expressways for `duration_s` simulated
/// seconds, feeding the stream in per-simulated-second batches (maximum
/// speed; the report compares against the real-time rate).
pub fn run_linear_road(xways: usize, duration_s: i64, seed: u64) -> LrReport {
    let sim = TrafficSim::generate(TrafficConfig {
        xways,
        duration_s,
        seed,
        ..TrafficConfig::default()
    });
    let history: Vec<(i64, i64, i64, i64)> = (1..200)
        .map(|v| (v, 1 + v % 20, (v % xways.max(1) as i64), (v * 7) % 90))
        .collect();
    let sys = LinearRoadSystem::new(&history).expect("build system");

    let records = sim.records();
    let mut response_sum = 0u64;
    let mut response_max = 0u64;
    let mut batches = 0u64;

    let started = Instant::now();
    let mut i = 0;
    while i < records.len() {
        // One simulated second per batch.
        let t = records[i].time();
        let mut j = i;
        while j < records.len() && records[j].time() == t {
            j += 1;
        }
        let batch_start = Instant::now();
        sys.feed(&records[i..j]).expect("feed");
        sys.drain();
        let micros = batch_start.elapsed().as_micros() as u64;
        response_sum += micros;
        response_max = response_max.max(micros);
        batches += 1;
        i = j;
    }
    let wall_s = started.elapsed().as_secs_f64();

    let validation = validate(&sys, records);
    let throughput = records.len() as f64 / wall_s.max(1e-9);
    let realtime_rate = records.len() as f64 / duration_s.max(1) as f64;
    LrReport {
        xways,
        records: records.len(),
        tolls: sys.toll_out.len(),
        accident_alerts: sys.acc_out.len(),
        balances: sys.bal_out.len(),
        dailies: sys.daily_out.len(),
        wall_s,
        throughput,
        mean_response_micros: response_sum as f64 / batches.max(1) as f64,
        max_response_micros: response_max,
        realtime_rate,
        headroom: throughput / realtime_rate.max(1e-9),
        validation,
    }
}

/// Binary-search-free L rating sweep: run increasing L until headroom
/// drops below 1 (or `max_l` is reached); returns the reports.
pub fn l_rating_sweep(ls: &[usize], duration_s: i64, seed: u64) -> Vec<LrReport> {
    ls.iter()
        .map(|&l| run_linear_road(l, duration_s, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_passes_and_reports() {
        let report = run_linear_road(1, 240, 21);
        assert!(report.records > 100);
        assert!(report.tolls > 0);
        assert!(
            report.validation.passed(),
            "{:?}",
            report.validation.mismatches
        );
        assert!(report.headroom > 1.0, "headroom {}", report.headroom);
        assert!(report.passed());
        assert!(report.table_row().contains("L=1"));
    }

    #[test]
    fn l_rating_sweep_returns_one_report_per_l() {
        let reports = l_rating_sweep(&[1, 2], 120, 33);
        assert_eq!(reports.len(), 2);
        assert!(reports[1].records > reports[0].records);
    }
}
