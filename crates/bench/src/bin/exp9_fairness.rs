//! `fig:exp9_fairness` — scheduler fairness under a deliberately heavy
//! co-tenant: `Fairness::Priority` (the historical sweep) vs
//! `Fairness::DeficitRoundRobin`.
//!
//! Four continuous queries share one scheduler. Three are cheap
//! selections; one is ~three orders of magnitude more expensive per tuple
//! (its basket expression joins a dimension table in which *every* key
//! matches every input tuple, so each input tuple fans out across the
//! whole table before being folded by an aggregate). Every query is fed at
//! the same paced rate through its own `ShedOldest`-bounded basket, so a
//! query that is not scheduled for a while *loses data* — exactly the
//! multi-tenant starvation the ROADMAP calls out.
//!
//! Under the Priority sweep each pass fires the heavy query over its
//! entire accumulated backlog: passes stretch to seconds, the cheap
//! queries' small baskets shed most of their arrivals while they wait, and
//! the per-query throughput ratio blows up. Under DRR the heavy query is
//! served in deficit-budgeted slices, passes stay short, nobody sheds for
//! lack of scheduling, and the ratio collapses toward the cost-imbalance
//! floor.
//!
//! Throughput here is **input tuples processed per second per query**
//! (`SchedulerMetrics::tuples_in`), the scheduler-side measure that is
//! comparable across queries with different output shapes.
//!
//! Emits one machine-readable summary line at the end
//! (`BENCH_fairness.json: {...}`).

use std::time::{Duration, Instant};

use datacell::{DataCell, Fairness};
use datacell_bench::{banner, f, TablePrinter};

/// Rows in the all-matching dimension table (per-tuple fan-out of the
/// heavy query).
const DIMS: usize = 2_600;
/// Offered load of every query, tuples/second (equal loads, so the
/// max/min throughput ratio directly reads as scheduler fairness).
const RATE: u64 = 30_000;
/// Heavy query's input basket bound (deep: the hot tenant hoards
/// backlog, and the Priority sweep will serve all of it in one firing).
const HEAVY_CAP: usize = 12_000;
/// Cheap queries' input basket bound (tight: latency-sensitive tenants).
const CHEAP_CAP: usize = 300;
/// DRR busy-time credit in µs per millisecond of wall-clock (accrual is
/// elapsed-time-based): 150 µs/ms × (3 + 1 + 1 + 1) total weight ≈ 0.9
/// cores — scarce enough that the tuple budget genuinely binds.
const QUANTUM_US: u64 = 150;
/// DRR weight of the heavy query (the operator grants the expensive
/// tenant a triple share — exercised through SET QUERY WEIGHT).
const HEAVY_WEIGHT: u32 = 3;

struct QueryRate {
    name: String,
    tuples_per_sec: f64,
}

fn run(fairness: Fairness, seconds: u64) -> Vec<QueryRate> {
    let cell = DataCell::builder().fairness(fairness).build();

    // The heavy query's dimension table: every row has the same key, so
    // each input tuple matches all DIMS rows before the aggregate folds
    // them — a deliberately expensive per-tuple plan.
    cell.execute("create table dims (k int)").unwrap();
    let values: Vec<String> = (0..DIMS).map(|_| "(1)".to_string()).collect();
    cell.execute(&format!("insert into dims values {}", values.join(",")))
        .unwrap();

    cell.execute("create basket bh (k int)").unwrap();
    cell.execute(
        "create continuous query heavy as \
         select count(*) as n from [select * from bh] as s join dims d on s.k = d.k",
    )
    .unwrap();
    let mut names = vec!["heavy".to_string()];
    for i in 1..=3 {
        cell.execute(&format!("create basket bc{i} (k int)"))
            .unwrap();
        cell.execute(&format!(
            "create continuous query c{i} as \
             select s.k from [select * from bc{i}] as s where s.k >= 0"
        ))
        .unwrap();
        names.push(format!("c{i}"));
    }

    // The hot tenant gets a triple DRR share (a no-op under Priority).
    cell.execute(&format!("set query weight heavy = {HEAVY_WEIGHT}"))
        .unwrap();

    // Bounded, shedding inputs: an unscheduled tenant drops data.
    cell.basket("bh")
        .unwrap()
        .set_capacity(Some(HEAVY_CAP), datacell::OverflowPolicy::ShedOldest);
    for i in 1..=3 {
        cell.basket(&format!("bc{i}"))
            .unwrap()
            .set_capacity(Some(CHEAP_CAP), datacell::OverflowPolicy::ShedOldest);
    }

    // Drain the outputs so result baskets stay small.
    let subs: Vec<_> = names
        .iter()
        .map(|n| {
            cell.subscribe::<Vec<datacell_bat::types::Value>>(n)
                .unwrap()
        })
        .collect();
    let drainers: Vec<_> = subs
        .into_iter()
        .map(|sub| {
            std::thread::spawn(move || {
                // Drain until the subscription closes; Ok(None) is just a quiet
                // window (e.g. the pre-start burst phase), not the end.
                while sub.next_timeout(Duration::from_millis(250)).is_ok() {}
            })
        })
        .collect();

    // Paced producers: RATE tuples/s each, in 5 ms slices, appended
    // straight into the ShedOldest baskets (an unserved tenant sheds, the
    // producer never blocks).
    let stop_feed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let feeders: Vec<_> = [("bh", RATE), ("bc1", RATE), ("bc2", RATE), ("bc3", RATE)]
        .iter()
        .map(|&(basket, rate)| {
            let b = cell.basket(basket).unwrap();
            let stop = std::sync::Arc::clone(&stop_feed);
            std::thread::spawn(move || {
                use datacell_bat::types::Value;
                let started = Instant::now();
                let mut sent = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let due = (started.elapsed().as_secs_f64() * rate as f64) as u64;
                    if due > sent {
                        let n = (due - sent).min(rate / 50);
                        let rows: Vec<Vec<Value>> = (0..n).map(|_| vec![Value::Int(1)]).collect();
                        let _ = b.append_rows(&rows);
                        sent += n;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        })
        .collect();

    // Build a burst backlog first, then start scheduling: the hot tenant
    // begins at its full basket bound, which the Priority sweep re-serves
    // as one mega-firing per pass forever, while DRR digests it in
    // budgeted slices. Then warm up and measure.
    std::thread::sleep(Duration::from_millis(800));
    cell.start();
    std::thread::sleep(Duration::from_secs(2));
    let t0 = Instant::now();
    let base = cell.metrics().per_query;
    std::thread::sleep(Duration::from_secs(seconds));
    let end = cell.metrics().per_query;
    let elapsed = t0.elapsed().as_secs_f64();

    stop_feed.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in feeders {
        let _ = h.join();
    }
    cell.stop();
    for d in drainers {
        let _ = d.join();
    }

    names
        .iter()
        .map(|n| {
            let find = |set: &[datacell::SchedulerMetrics]| {
                set.iter().find(|m| &m.name == n).map_or(0, |m| m.tuples_in)
            };
            QueryRate {
                name: n.clone(),
                tuples_per_sec: (find(&end) - find(&base)) as f64 / elapsed,
            }
        })
        .collect()
}

fn ratio(rates: &[QueryRate]) -> f64 {
    let max = rates.iter().map(|r| r.tuples_per_sec).fold(0.0, f64::max);
    let min = rates
        .iter()
        .map(|r| r.tuples_per_sec)
        .fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

fn main() {
    let seconds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    banner(
        "fig:exp9_fairness",
        "per-query throughput under Priority vs DeficitRoundRobin with one \
         deliberately heavy co-tenant (equal offered load, ShedOldest inputs)",
        "Priority: heavy backlog monopolizes passes, cheap tenants shed and the \
         max/min ratio blows up; DRR: budgeted slices keep everyone served, \
         ratio near 1",
    );
    let table = TablePrinter::new(&["policy", "query", "tuples/s", "max/min ratio"]);
    let mut json = Vec::new();
    for (label, fairness) in [
        ("priority", Fairness::Priority),
        (
            "drr",
            Fairness::DeficitRoundRobin {
                quantum: QUANTUM_US,
            },
        ),
    ] {
        let rates = run(fairness, seconds);
        let r = ratio(&rates);
        for q in &rates {
            table.row(&[label.to_string(), q.name.clone(), f(q.tuples_per_sec), f(r)]);
        }
        let per_query: Vec<String> = rates
            .iter()
            .map(|q| {
                format!(
                    "{{\"query\":\"{}\",\"tuples_per_sec\":{:.0}}}",
                    q.name, q.tuples_per_sec
                )
            })
            .collect();
        let ratio_json = if r.is_finite() {
            format!("{r:.2}")
        } else {
            // A smoke-length window can close before a single mega-firing
            // completes; keep the line valid JSON.
            "null".to_string()
        };
        json.push(format!(
            "{{\"policy\":\"{label}\",\"quantum_us\":{},\"max_min_ratio\":{ratio_json},\
             \"per_query\":[{}]}}",
            if label == "drr" { QUANTUM_US } else { 0 },
            per_query.join(",")
        ));
    }
    println!();
    println!(
        "BENCH_fairness.json: {{\"experiment\":\"exp9_fairness\",\
         \"rate_tps\":{RATE},\"dims\":{DIMS},\"heavy_weight\":{HEAVY_WEIGHT},\
         \"measured_s\":{seconds},\"results\":[{}]}}",
        json.join(",")
    );
}
