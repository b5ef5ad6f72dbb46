//! One workload, start to finish: set-up, the open-loop phase, the
//! saturation bursts, the oracle, and — for a traced run — the replay
//! and the direct layer calls. All load comes from this process: one
//! producer (the calling thread) and one consumer thread.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{Generator, Rng};
use crate::layers::{self, Consumer, Counters, Engine, Feed, Pipeline, Poll, Producer};
use crate::oracle::{self, Acc, Digest, Input, JOIN_WINDOW};
use crate::pacer::{wait_until, Schedule};
use crate::procfs;
use crate::spec::{
    Kind, Plan, Workload, BURSTS, DEADLINE_US, RECOVERY_ROWS, REPLAY_TUPLES, SETUPS, WINDOWS,
};
use crate::stats::{median, percentile_sorted, samples_beyond, windowed_percentile};
use crate::trace::{self, Tracer};

/// The producer samples the basket backlogs every this many tuples.
const SAMPLE_EVERY: usize = 4_096;
/// A phase whose results have not all arrived this long after its last
/// tuple was sent has failed.
const PHASE_TIMEOUT: Duration = Duration::from_secs(30);
/// Period of the server's accept poll, µs (see [`set_up`]).
const ACCEPT_POLL_US: u64 = 2_000;
/// Input is generated in pieces of this many tuples (a whole number of
/// join window pairs) through one small reused buffer.
const PIECE: u64 = 65_536;
/// The input backlog may end the open-loop phase this many tuples deeper
/// than at its middle before the rate counts as not sustained.
const BACKLOG_SLACK: usize = 2_048;

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable remarks (validity of the latency numbers, sample
    /// counts, what failed).
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn fail(&mut self, ops: u64, why: String) {
        if ops > 0 {
            self.failed += ops;
            self.notes.push(format!("FAILED ({ops} ops): {why}"));
        }
    }
}

/// A scratch directory next to the executable (inside the build
/// directory, so on the checkout's filesystem and not on tmpfs), removed
/// on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let exe = std::env::current_exe().expect("current_exe");
        let dir = exe
            .parent()
            .expect("executable has a directory")
            .join(format!("dcbench-data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How the consumer turns a result row into a latency sample.
struct Latency {
    kind: Kind,
    plan: Plan,
    sched: Schedule,
}

impl Latency {
    /// Due time of the last input tuple contributing to `row`.
    fn due_us(&self, row: &[i64]) -> Option<u64> {
        let due = match self.kind {
            Kind::Filter => *row.get(2)?,
            Kind::Multi => *row.get(3)?,
            // The pair of windows closes with quote `128(w+1) - 1`, the
            // later of the two closing tuples since sides alternate.
            Kind::Join => {
                let w = u64::try_from(*row.get(1)?).ok()? / JOIN_WINDOW as u64;
                let closer = 2 * ((w + 1) * JOIN_WINDOW as u64 - 1) + 1;
                self.sched.due_us(closer) as i64
            }
        };
        u64::try_from(due).ok()
    }
}

/// What the consumer thread collected in one phase.
struct Collected {
    acc: Acc,
    windows: Vec<Vec<u32>>,
    first_us: Option<u64>,
    last_us: u64,
    late: u64,
    malformed: u64,
    closed: bool,
    timed_out: bool,
}

/// Receive until `want` weight has arrived, the stream closes, or
/// `give_up()` says the phase has timed out.
fn collect(
    consumer: &mut Consumer,
    kind: Kind,
    want: u64,
    clock: Instant,
    latency: Option<&Latency>,
    give_up: &dyn Fn() -> bool,
) -> Collected {
    let mut c = Collected {
        acc: Acc::new(kind),
        windows: vec![Vec::new(); WINDOWS],
        first_us: None,
        last_us: 0,
        late: 0,
        malformed: 0,
        closed: false,
        timed_out: false,
    };
    while c.acc.weight() < want {
        let polled = consumer.poll(clock, &mut |q, row, now_us| {
            if row.is_empty() {
                c.malformed += 1;
                return;
            }
            c.acc.absorb(q, row);
            c.first_us.get_or_insert(now_us);
            c.last_us = now_us;
            if let Some(l) = latency {
                if let Some(due) = l.due_us(row) {
                    if let Some(w) = l.plan.window_of(due) {
                        let lat = now_us.saturating_sub(due);
                        c.windows[w].push(lat.min(u64::from(u32::MAX)) as u32);
                        c.late += u64::from(lat > DEADLINE_US);
                    }
                }
            }
        });
        match polled {
            Poll::Closed => {
                c.closed = true;
                break;
            }
            Poll::Rows(0) if give_up() => {
                c.timed_out = true;
                break;
            }
            Poll::Rows(_) => {}
        }
    }
    c
}

/// Run one phase: the consumer collects on its own thread while
/// `produce` sends on the calling one. The phase times out when results
/// are still missing [`PHASE_TIMEOUT`] after `produce` returned.
fn run_phase(
    consumer: &mut Consumer,
    kind: Kind,
    want: u64,
    clock: Instant,
    latency: Option<&Latency>,
    produce: impl FnOnce(),
) -> Collected {
    let sent_done = std::sync::OnceLock::new();
    let give_up = || {
        sent_done
            .get()
            .is_some_and(|t: &Instant| t.elapsed() > PHASE_TIMEOUT)
    };
    std::thread::scope(|s| {
        let h = s.spawn(|| collect(consumer, kind, want, clock, latency, &give_up));
        produce();
        let _ = sent_done.set(Instant::now());
        h.join().expect("consumer thread")
    })
}

/// Generate the next `n` tuples into `feed`, piece by piece through
/// `piece`, and return what the queries must deliver for them. The first
/// [`REPLAY_TUPLES`] of a phase are also copied to `head` when given.
fn fill(
    gen: &mut Generator,
    kind: Kind,
    feed: &mut Feed,
    piece: &mut Input,
    n: u64,
    stamp: impl Fn(u64) -> u64,
    mut head: Option<&mut Input>,
) -> Digest {
    let mut want = Acc::new(kind);
    feed.clear();
    for first in (0..n).step_by(PIECE as usize) {
        gen.fill(piece, PIECE.min(n - first), |i| stamp(first + i));
        oracle::expect_into(&mut want, piece);
        if let Some(head) = head.as_deref_mut() {
            let room = REPLAY_TUPLES.saturating_sub(head.len());
            head.extend_from(piece, room);
        }
        feed.push(piece);
    }
    want.digest()
}

/// Compare what arrived with the reference; returns failed ops.
fn check(report: &mut Report, phase: &str, want: Digest, got: &Collected) {
    let digest = got.acc.digest();
    report.attempted += want.weight;
    let missing = want.weight.abs_diff(digest.weight);
    report.fail(
        missing,
        format!(
            "{phase}: result weight {} != expected {}{}",
            digest.weight,
            want.weight,
            if got.timed_out {
                " (timed out)"
            } else if got.closed {
                " (stream closed)"
            } else {
                ""
            }
        ),
    );
    report.fail(got.malformed, format!("{phase}: malformed result rows"));
    if missing == 0 && digest.checksum != want.checksum {
        report.fail(
            1,
            format!("{phase}: result checksum differs from the reference"),
        );
    }
}

/// Backlog samples taken by the producer.
#[derive(Default)]
struct Backlog {
    in_max: usize,
    out_max: usize,
    disk_max: u64,
}

impl Backlog {
    fn sample(&mut self, engine: &Engine, durable: bool) {
        self.in_max = self.in_max.max(engine.in_backlog());
        self.out_max = self.out_max.max(engine.out_backlog());
        if durable {
            self.disk_max = self.disk_max.max(engine.counters().bytes_on_disk);
        }
    }
}

/// One engine set up with both generator ends connected.
struct Live {
    engine: Engine,
    producer: Producer,
    consumer: Consumer,
    setup_s: f64,
    handshake_ms: f64,
}

/// Set-up: open the engine, connect both ends. Between the two the
/// clients pause for `pause_us` (not timed): the server's accept loop
/// polls every 2 ms, and a client that always connects right after the
/// server started would always meet the same phase of that poll — which
/// phase is a race the host's speed decides. An independent client meets
/// a random phase, so the pause is drawn uniformly from one poll period.
fn set_up(w: &Workload, pipe: &Pipeline, data_dir: Option<&Path>, pause_us: u64) -> Live {
    let t = Instant::now();
    let engine = Engine::open(pipe, w.wire, data_dir);
    let open_s = t.elapsed().as_secs_f64();
    std::thread::sleep(Duration::from_micros(pause_us));
    let t = Instant::now();
    let (producer, consumer) = engine.connect(w.wire);
    let connect_s = t.elapsed().as_secs_f64();
    Live {
        engine,
        producer,
        consumer,
        setup_s: open_s + connect_s,
        handshake_ms: connect_s * 1e3,
    }
}

pub fn run_workload(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report = Report::default();
    let plan = Plan::new(w, seconds);
    let sched = Schedule::new(w.open_rate);
    let pipe = layers::pipeline(w.kind, w.durable);
    let scratch = Scratch::new();
    let mut gen = Generator::new(w.kind, seed);
    // ---- input of the open-loop phase, before any clock starts. One
    // feed and one piece buffer serve the whole run.
    let n_open = plan.open_tuples(sched.tuples_in(plan.open_ticks()));
    let mut feed = Feed::with_capacity(w.wire, gen.width(), n_open.max(plan.burst_tuples) as usize);
    let mut piece = Input::default();
    let mut head = Input::default();
    head.data.reserve(REPLAY_TUPLES * gen.width());
    let open_want = fill(
        &mut gen,
        w.kind,
        &mut feed,
        &mut piece,
        n_open,
        |i| sched.due_us(i),
        Some(&mut head),
    );

    // ---- set-up, several times over; the last one is kept
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut register_ms = Vec::with_capacity(SETUPS);
    let mut handshake_ms = Vec::with_capacity(SETUPS);
    let mut live = None;
    let mut data_dir = None;
    let mut pauses = Rng::new(seed ^ 0x5e7_0b5e);
    for i in 0..SETUPS {
        if let Some(Live {
            engine,
            producer,
            consumer,
            ..
        }) = live.take()
        {
            drop((producer, consumer));
            engine.close();
        }
        data_dir = w.durable.then(|| scratch.0.join(format!("data-{i}")));
        let l = set_up(
            w,
            &pipe,
            data_dir.as_deref(),
            pauses.below(ACCEPT_POLL_US) as u64,
        );
        setup_s.push(l.setup_s);
        register_ms.push(l.engine.register_ms);
        handshake_ms.push(l.handshake_ms);
        live = Some(l);
    }
    let Live {
        engine,
        mut producer,
        mut consumer,
        ..
    } = live.expect("SETUPS > 0");
    report.set("setup_s", median(&setup_s));
    report.set("sql.register_query_ms", median(&register_ms));
    report.set("net.handshake_ms", median(&handshake_ms));
    let workers = engine.counters().workers;
    println!(
        "# nproc={} workers={workers} (DATACELL_WORKERS unset: {})",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var_os("DATACELL_WORKERS").is_none()
    );
    if w.durable {
        println!(
            "# durability: per-basket WAL, every acknowledged append fdatasync'd with group \
             commit (engine default), spill budget {} rows",
            crate::spec::SPILL_ROWS
        );
    }

    // ---- open-loop phase at the fixed rate R
    let latency = Latency {
        kind: w.kind,
        plan,
        sched,
    };
    let mut lateness: Vec<u32> = Vec::with_capacity(plan.open_ticks() as usize);
    let mut open_backlog = Backlog::default();
    let mut in_backlog_mid = 0;
    let mut in_backlog_end = 0;
    let mut offered_s = 0.0;
    let mut open_cores = 0.0;
    let mut synced = (0u64, 0u64);
    let open_cpu0 = procfs::cpu_seconds();
    let clock = Instant::now();
    let open_got = run_phase(
        &mut consumer,
        w.kind,
        open_want.weight,
        clock,
        Some(&latency),
        || {
            let ticks = plan.open_ticks();
            for j in 0..ticks {
                let late = wait_until(clock, j * crate::pacer::TICK_US);
                if j >= plan.warm_ticks {
                    lateness.push(late.min(u64::from(u32::MAX)) as u32);
                }
                let from = sched.first_of_tick(j).min(n_open) as usize;
                let to = sched.first_of_tick(j + 1).min(n_open) as usize;
                if from < to {
                    producer.send(&feed, from, to);
                }
                if j % 64 == 63 {
                    open_backlog.sample(&engine, false);
                }
                if j == ticks / 2 {
                    in_backlog_mid = engine.in_backlog();
                }
            }
            offered_s = clock.elapsed().as_secs_f64();
            if let (Some(c0), Some(c1)) = (open_cpu0, procfs::cpu_seconds()) {
                open_cores = (c1 - c0) / offered_s;
            }
            in_backlog_end = engine.in_backlog();
            synced = producer.sync();
        },
    );
    report.attempted += n_open;
    report.fail(
        n_open.abs_diff(synced.0) + synced.1,
        format!(
            "open loop: {} of {n_open} tuples accepted, {} rejected",
            synced.0, synced.1
        ),
    );
    check(&mut report, "open loop", open_want, &open_got);
    let mut windows = open_got.windows;
    let (p50, n50) = windowed_percentile(&mut windows, 0.50);
    let (p99, _) = windowed_percentile(&mut windows, 0.99);
    let (p999, _) = windowed_percentile(&mut windows, 0.999);
    report.set("latency_p50_us", p50);
    report.set("latency_p99_us", p99);
    report.set("latency_p999_us", p999);
    lateness.sort_unstable();
    let lateness_p99 = percentile_sorted(&lateness, 0.99);
    report.set("gen.lateness_p99_us", lateness_p99);
    report.set("gen.offered_tps", n_open as f64 / offered_s);
    report.set("basket.in_backlog_end", in_backlog_end as f64);
    report.set(
        "emitter.first_result_ms",
        open_got.first_us.map_or(0.0, |us| us as f64 / 1e3),
    );
    let sampled: u64 = windows.iter().map(|w| w.len() as u64).sum();
    let missing_open = open_want
        .weight
        .saturating_sub(open_got.acc.digest().weight);
    report.set(
        "deadline_miss_ratio",
        (open_got.late + missing_open) as f64 / (sampled + missing_open).max(1) as f64,
    );
    report.notes.push(format!(
        "open loop: R={}/s for {} ms on {open_cores:.2} cores, {} result samples per window \
         at least ({} beyond p99, {} beyond p99.9; a percentile needs 10)",
        w.open_rate,
        plan.open_ticks(),
        n50,
        samples_beyond(n50, 0.99),
        samples_beyond(n50, 0.999)
    ));
    // R is sustained when the input backlog at the end of the phase is no
    // deeper than at its middle, give or take a few ingest batches.
    if in_backlog_end > in_backlog_mid + BACKLOG_SLACK {
        report.notes.push(format!(
            "latency VOID: input backlog grew {in_backlog_mid} -> {in_backlog_end} in the \
             open-loop phase, R is not sustained"
        ));
    }
    if lateness_p99 > 1_000.0 {
        report.notes.push(format!(
            "latency UNRESOLVED: generator ran {lateness_p99} us late at p99 (> 1 ms)"
        ));
    }

    // ---- saturation: bursts sent as fast as backpressure admits
    let before = engine.counters();
    let mut sat_backlog = Backlog::default();
    let (mut tps, mut cpu_us, mut ack_tps) = (Vec::new(), Vec::new(), Vec::new());
    let mut sat_wall_s = 0.0;
    let mut stamp_base = n_open;
    for b in 0..BURSTS {
        if report.failed > 0 {
            break;
        }
        let n = plan.burst_tuples;
        let base = stamp_base;
        let want = fill(
            &mut gen,
            w.kind,
            &mut feed,
            &mut piece,
            n,
            |i| base + i,
            None,
        );
        stamp_base += n;
        let synced_before = synced;
        let cpu0 = procfs::cpu_seconds();
        let clock = Instant::now();
        let mut ack_s = 0.0;
        let got = run_phase(&mut consumer, w.kind, want.weight, clock, None, || {
            for from in (0..n as usize).step_by(SAMPLE_EVERY) {
                let to = (from + SAMPLE_EVERY).min(n as usize);
                producer.send(&feed, from, to);
                sat_backlog.sample(&engine, w.durable);
            }
            synced = producer.sync();
            ack_s = clock.elapsed().as_secs_f64();
        });
        let cpu1 = procfs::cpu_seconds();
        report.attempted += n;
        report.fail(
            n.abs_diff(synced.0 - synced_before.0) + (synced.1 - synced_before.1),
            format!(
                "burst {b}: {} of {n} tuples accepted",
                synced.0 - synced_before.0
            ),
        );
        check(&mut report, &format!("burst {b}"), want, &got);
        let burst_s = (got.last_us as f64 / 1e6).max(1e-9);
        sat_wall_s += burst_s;
        tps.push(n as f64 / burst_s);
        ack_tps.push(n as f64 / ack_s.max(1e-9));
        if let (Some(c0), Some(c1)) = (cpu0, cpu1) {
            cpu_us.push((c1 - c0) * 1e6 / n as f64);
        }
    }
    let after = engine.counters();
    report.set("throughput_tps", median(&tps));
    report.set("cpu_us_per_tuple", median(&cpu_us));
    report.set("net.ingest_ack_tps", median(&ack_tps));
    report.notes.push(format!(
        "saturation: {BURSTS} bursts of {} tuples, throughput and CPU are medians over bursts; \
         per burst {:?} tuples/s, {:?} us CPU/tuple",
        plan.burst_tuples,
        tps.iter().map(|t| t.round()).collect::<Vec<_>>(),
        cpu_us
            .iter()
            .map(|c| (c * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    live_counters(&mut report, &before, &after, sat_wall_s);
    report.set(
        "basket.in_backlog_max",
        sat_backlog.in_max.max(open_backlog.in_max) as f64,
    );
    report.set(
        "basket.out_backlog_max",
        sat_backlog.out_max.max(open_backlog.out_max) as f64,
    );
    report.set("storage.bytes_on_disk_peak", sat_backlog.disk_max as f64);

    // ---- nothing may arrive that was not expected
    let mut extra = 0u64;
    if report.failed == 0 {
        let idle = Instant::now();
        while idle.elapsed() < Duration::from_millis(60) {
            if let Poll::Rows(n) = consumer.poll(idle, &mut |_, _, _| {}) {
                extra += n as u64;
            }
        }
    }
    report.fail(extra, "result rows beyond the expected ones".into());

    // ---- durable_wire: acknowledged-but-undelivered rows must come back
    let mut recovery_s = None;
    if w.durable && report.failed == 0 {
        engine.pause_queries();
        let base = stamp_base;
        let mut pending = Input::default();
        gen.fill(&mut pending, RECOVERY_ROWS as u64, |i| base + i);
        feed.clear();
        feed.push(&pending);
        producer.send(&feed, 0, feed.len());
        let acked = producer.sync().0 - synced.0;
        // With the query paused the backlog outgrows the spill budget:
        // this is where the run spills, so the storage totals are read
        // again here.
        let stored = engine.counters();
        report.set("storage.tuples_spilled", stored.spilled as f64);
        report.set("storage.segments_written", stored.segments_written as f64);
        report.set("storage.segments_read", stored.segments_read as f64);
        report.set(
            "storage.bytes_on_disk_peak",
            sat_backlog.disk_max.max(stored.bytes_on_disk) as f64,
        );
        report.attempted += pending.len() as u64;
        report.fail(
            (pending.len() as u64).abs_diff(acked),
            format!("recovery: {acked} of {} tuples acknowledged", pending.len()),
        );
        drop((producer, consumer));
        engine.close();
        let back = layers::recover(&pipe, data_dir.as_deref().expect("durable data_dir"));
        let mut want = Acc::new(Kind::Filter);
        pending.rows().for_each(|r| want.absorb(0, r));
        let mut got = Acc::new(Kind::Filter);
        back.rows.rows().for_each(|r| got.absorb(0, r));
        report.attempted += pending.len() as u64;
        if got.digest() != want.digest() {
            report.fail(
                (pending.len() as u64)
                    .abs_diff(back.rows.len() as u64)
                    .max(1),
                format!(
                    "recovery: {} rows recovered, {} acknowledged and undelivered",
                    back.rows.len(),
                    pending.len()
                ),
            );
        }
        recovery_s = Some(back.seconds);
    } else {
        drop((producer, consumer));
        engine.close();
    }

    // ---- traced replay and direct layer calls
    if traced {
        let direct = replay_and_direct(w, &pipe, &head, &scratch.0, &mut report);
        report.set("recovery_s", recovery_s.unwrap_or(direct));
    }
    report.set(
        "failed_ops_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", procfs::peak_rss_mib().unwrap_or(0.0));
    report
}

/// Per-layer metrics read from `DataCell::metrics()` as a delta over the
/// saturation phase.
fn live_counters(report: &mut Report, a: &Counters, b: &Counters, wall_s: f64) {
    let firings = (b.firings - a.firings).max(1) as f64;
    report.set("scheduler.passes", (b.passes - a.passes) as f64);
    report.set("scheduler.firings", (b.firings - a.firings) as f64);
    report.set(
        "scheduler.tuples_per_firing",
        (b.tuples_in - a.tuples_in) as f64 / firings,
    );
    report.set(
        "scheduler.sched_delay_us_per_firing",
        b.sched_delay_us.saturating_sub(a.sched_delay_us) as f64 / firings,
    );
    report.set("scheduler.deferrals", (b.deferrals - a.deferrals) as f64);
    report.set(
        "factory.busy_share",
        (b.busy_us - a.busy_us) as f64 / 1e6 / wall_s.max(1e-9),
    );
    report.set("exec.worker_busy_mean", b.worker_busy_mean);
    report.set("exec.steals", (b.steals - a.steals) as f64);
    report.set(
        "exec.firings_parallel",
        (b.firings_parallel - a.firings_parallel) as f64,
    );
    report.set(
        "basket.overflow_events",
        (b.overflow_events - a.overflow_events) as f64,
    );
    report.set("planshare.shared_subplans", b.shared_subplans as f64);
    // Whole-run totals: the oracle's exact-count cross-checks.
    report.set("net.tuples_in", b.net_in as f64);
    report.set("net.tuples_out", b.net_out as f64);
    report.set("net.lines_rejected", b.net_rejected as f64);
    report.set("storage.tuples_spilled", b.spilled as f64);
    report.set("storage.segments_written", b.segments_written as f64);
    report.set("storage.segments_read", b.segments_read as f64);
}

/// The workload's columns recast as input of the filter pipeline
/// (`k, v, sent_us`) and of the join pipeline (`k, seq`, sides
/// alternating), so every traced run can time the layers its own path
/// bypasses on its own data.
fn recast(kind: Kind, input: &Input) -> (Input, Input) {
    let filter = match kind {
        Kind::Filter | Kind::Multi => input.clone(),
        Kind::Join => Input {
            width: 3,
            data: input
                .rows()
                .flat_map(|r| [r[0], r[1] % 1_000, r[1]])
                .collect(),
        },
    };
    let join = match kind {
        Kind::Join => input.clone(),
        Kind::Filter | Kind::Multi => Input {
            width: 2,
            data: input
                .rows()
                .enumerate()
                .flat_map(|(i, r)| [r[0], i as i64 / 2])
                .collect(),
        },
    };
    (filter, join)
}

/// Replay the head of the input with spans on (and once more with spans
/// off, for the overhead), replay the two pipelines the workload's path
/// bypasses, make the direct calls, and turn it all into per-layer
/// metrics. Returns the direct recovery time.
fn replay_and_direct(
    w: &Workload,
    pipe: &Pipeline,
    head: &Input,
    scratch: &Path,
    report: &mut Report,
) -> f64 {
    let lines = layers::render_lines(head);
    let want = oracle::expect(w.kind, head);
    let dir = |tag: &str| w.durable.then(|| scratch.join(format!("replay-{tag}")));

    let mut off = Tracer::new(false);
    let plain = layers::replay(pipe, head, &lines, w.wire, dir("off").as_deref(), &mut off);
    let mut tr = Tracer::new(true);
    let traced = layers::replay(pipe, head, &lines, w.wire, dir("on").as_deref(), &mut tr);
    report.attempted += 2 * want.weight;
    for (tag, r) in [("untraced", &plain), ("traced", &traced)] {
        if r.digest != want {
            report.fail(
                want.weight.abs_diff(r.digest.weight).max(1),
                format!("{tag} replay: results differ from the reference"),
            );
        }
    }
    let table = trace::self_times(tr.spans());
    let per_tuple = |name: &str| trace::self_ns(&table, name) as f64 / traced.tuples as f64;
    let per_row = |name: &str| trace::self_ns(&table, name) as f64 / traced.out_rows.max(1) as f64;
    report.set(
        "text.decode_ns_per_tuple",
        per_tuple("text.decode") + per_tuple("direct.text.decode"),
    );
    report.set(
        "text.encode_ns_per_row",
        per_row("text.encode") + per_row("direct.text.encode"),
    );
    report.set("basket.append_ns_per_tuple", per_tuple("basket.append"));
    report.set(
        "basket.claim_commit_ns_per_row",
        per_row("basket.claim_commit"),
    );
    report.set(
        "scheduler.pass_self_ns_per_tuple",
        per_tuple("scheduler.run"),
    );
    let path_ns: u64 = layers::PATH_STAGES
        .iter()
        .map(|s| trace::self_ns(&table, s))
        .sum();
    report.set(
        "trace.path_ns_per_tuple",
        path_ns as f64 / traced.tuples as f64,
    );
    report.set(
        "trace.overhead_ratio",
        traced.wall_ns as f64 / plain.wall_ns.max(1) as f64,
    );

    println!("# traced replay: {} tuples in batches of {}, {} result rows, single-threaded {:.0} tuples/s untraced",
        traced.tuples, crate::spec::REPLAY_BATCH, traced.out_rows, plain.tuples as f64 * 1e9 / plain.wall_ns.max(1) as f64);
    println!(
        "# {:<24} {:>8} {:>14} {:>14} {:>9}",
        "span", "count", "total_ms", "self_ms", "path_%"
    );
    for (name, (count, total, own)) in &table {
        let share = if layers::PATH_STAGES.contains(name) {
            format!("{:.1}", *own as f64 * 100.0 / path_ns.max(1) as f64)
        } else {
            "-".into()
        };
        println!(
            "# {name:<24} {count:>8} {:>14.3} {:>14.3} {share:>9}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }

    // The two transitions: the workload's own replay has one of them on
    // its path; the other is timed by replaying its pipeline over the
    // workload's columns.
    let (filter_in, join_in) = recast(w.kind, head);
    let step_of = |p: &Pipeline, input: &Input| -> f64 {
        let mut t = Tracer::new(true);
        let lines = layers::render_lines(input);
        let r = layers::replay(p, input, &lines, false, None, &mut t);
        trace::self_ns(&trace::self_times(t.spans()), p.step_span) as f64 / r.tuples as f64
    };
    let filter_step = if w.kind == Kind::Filter && !w.durable {
        per_tuple("factory.step")
    } else {
        step_of(&layers::pipeline(Kind::Filter, false), &filter_in)
    };
    let (factory_step, join_step) = match w.kind {
        Kind::Filter | Kind::Multi => (
            per_tuple("factory.step"),
            step_of(&layers::pipeline(Kind::Join, false), &join_in),
        ),
        Kind::Join => (filter_step, per_tuple("window_join.step")),
    };
    report.set("factory.step_ns_per_tuple", factory_step);
    report.set("window_join.step_ns_per_tuple", join_step);

    let d = layers::direct(head, &filter_in, scratch);
    report.attempted += head.len() as u64;
    report.fail(
        (head.len() as u64).abs_diff(d.recovered_rows as u64),
        format!(
            "direct recovery: {} of {} rows came back",
            d.recovered_rows,
            head.len()
        ),
    );
    report.set("scheduler.idle_pass_us", d.idle_pass_us);
    report.set("bat.select_range_gb_s", d.select_range_gb_s);
    report.set("bat.group_agg_mtuples_s", d.group_agg_mtuples_s);
    report.set("bat.hash_join_mtuples_s", d.hash_join_mtuples_s);
    report.set("storage.wal_append_ns_per_tuple", d.wal_append_ns_per_tuple);
    report.set("storage.wal_sync_us_per_commit", d.wal_sync_us_per_commit);
    report.set("storage.wal_bytes_per_tuple", d.wal_bytes_per_tuple);
    report.set("storage.codec_encode_mb_s", d.codec_encode_mb_s);
    report.set("storage.codec_decode_mb_s", d.codec_decode_mb_s);
    report.set("storage.segment_seal_mb_s", d.segment_seal_mb_s);
    report.set("storage.segment_read_mb_s", d.segment_read_mb_s);
    report.set("baseline.push_ns_per_tuple", d.baseline_push_ns_per_tuple);
    // The paper's thesis on the same filter over the same rows:
    // tuple-at-a-time cost over bulk cost.
    report.set(
        "bulk_vs_tuple_ratio",
        d.baseline_push_ns_per_tuple / filter_step.max(1e-9),
    );
    report.spans = tr.spans().to_vec();
    d.recover_s
}
