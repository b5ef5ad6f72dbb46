//! `dcbench` — the repository's one benchmark.
//!
//! ```text
//! dcbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//!     one workload in this process; prints every metric it measured as
//!     `metric <name> <value> <unit>` and, as the last line, one JSON
//!     object: the end-to-end metrics with `--trace 0`, the per-layer
//!     metrics with `--trace 1`.
//! dcbench [--seed <n>] [--seconds <s>] [--quick] [--selfcheck] [--trace-out <file>]
//!     all four workloads, each in a fresh child process of this
//!     executable (so the peak resident set is per workload); with
//!     `--selfcheck` two sets of three such runs, compared by their medians.
//! ```
//!
//! See `README.md` next to this package for the metric catalogue.

mod gen;
mod layers;
mod oracle;
mod pacer;
mod procfs;
mod run;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};

const DEFAULT_SEED: u64 = 20_090_824;
const DEFAULT_SECONDS: u64 = 20;
const QUICK_SECONDS: u64 = 1;
/// Runs per set of `--selfcheck`.
const SELFCHECK_RUNS: usize = 3;
/// No run may outlive this: the contract allows 180 s.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    trace_out: Option<String>,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcbench: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => one_workload(name, &args),
        None => all_workloads(&args),
    }
}

/// Fix glibc malloc's mmap and trim thresholds for this process.
///
/// By default glibc raises both thresholds whenever a larger mmapped
/// block is freed (up to 32 MiB), and the engine's cost per tuple at
/// saturation differs by up to 2× on the two sides of that ratchet: below
/// it every column of a large firing is mmapped, page-faulted and
/// unmapped again. When a run crossed it was chance — the size of the
/// benchmark's own buffers, or one unusually large firing — so throughput
/// was bimodal across runs. A long-running process ends up on the high
/// side, so the benchmark starts there: the thresholds are set to the
/// values the ratchet converges to, which also turns the ratchet off.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
    const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain ints, is called once before any other thread exists, and a
    // rejected value only returns 0.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) != 0 && mallopt(M_TRIM_THRESHOLD, 64 << 20) != 0
    };
    if !ok {
        eprintln!("dcbench: mallopt refused the thresholds; allocator left at its defaults");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

/// Contract mode: one workload, one JSON line last.
fn one_workload(name: &str, args: &Args) -> ExitCode {
    let Some(w) = spec::workload(name) else {
        eprintln!("dcbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    pin_allocator();
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("dcbench: run exceeded {WATCHDOG:?}, giving up (timeout = failed)");
        std::process::exit(3);
    });
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let traced = args.trace || args.trace_out.is_some();
    println!("# dcbench workload={name} seed={seed} seconds={seconds} traced={traced}");
    let report = run::run_workload(w, seed, seconds, traced);
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(path) = &args.trace_out {
        match trace::write_json(&report.spans, std::path::Path::new(path)) {
            Ok(()) => println!("# {} spans written to {path}", report.spans.len()),
            Err(e) => eprintln!("dcbench: writing {path}: {e}"),
        }
    }

    let unit_of: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .collect();
    for (name, value) in &report.metrics {
        println!("metric {name} {value} {}", unit_of[name]);
    }
    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One set: every workload in a child process; returns the metrics each
/// child printed, or `None` when a child failed.
fn run_set(
    args: &Args,
    seconds: u64,
    tag: &str,
) -> Option<BTreeMap<String, BTreeMap<String, f64>>> {
    let exe = std::env::current_exe().expect("current_exe");
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut set = BTreeMap::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace_out.is_some() { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(path) = &args.trace_out {
            cmd.args(["--trace-out", &format!("{path}.{}{tag}", w.name)]);
        }
        println!("== {} {tag}", w.name);
        let out = cmd
            .spawn()
            .and_then(|child| child.wait_with_output())
            .expect("run child workload");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut metrics = BTreeMap::new();
        for line in text.lines() {
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["metric", name, value, unit] => {
                    println!("  {name:<40} {value:>22} {unit}");
                    metrics.insert(name.to_string(), value.parse().unwrap_or(f64::NAN));
                }
                _ if line.starts_with('#') => println!("  {line}"),
                _ => {}
            }
        }
        if !out.status.success() {
            println!("  FAILED: exit {:?}", out.status.code());
            ok = false;
        }
        set.insert(w.name.to_string(), metrics);
    }
    ok.then_some(set)
}

/// All four workloads; with `--selfcheck` as two sets of
/// [`SELFCHECK_RUNS`] runs each, taken alternately, failing unless every
/// end-to-end metric's median over set 2 is within its bound of its median
/// over set 1. (One run against one run is not a fair check on a host
/// whose speed wanders: a single slow episode fails it.)
fn all_workloads(args: &Args) -> ExitCode {
    let seconds = match (args.quick, args.seconds) {
        (true, _) => QUICK_SECONDS,
        (false, s) => s.unwrap_or(DEFAULT_SECONDS),
    };
    if !args.selfcheck {
        return match run_set(args, seconds, "") {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::from(1),
        };
    }
    let mut sets = [Vec::new(), Vec::new()];
    for round in 0..SELFCHECK_RUNS {
        for (i, set) in sets.iter_mut().enumerate() {
            match run_set(args, seconds, &format!(".set{}.{round}", i + 1)) {
                Some(metrics) => set.push(metrics),
                None => return ExitCode::from(1),
            }
        }
    }
    println!("== selfcheck: medians of {SELFCHECK_RUNS} runs, set 2 against set 1");
    let mut worse = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let med = |set: &[BTreeMap<String, BTreeMap<String, f64>>]| {
                stats::median(&set.iter().map(|r| r[w.name][m.name]).collect::<Vec<_>>())
            };
            let (a, b) = (med(&sets[0]), med(&sets[1]));
            let change = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if args.quick {
                "not gated (--quick)"
            } else if change > m.bound {
                worse += 1;
                "WORSE THAN BOUND"
            } else {
                "ok"
            };
            println!(
                "  {:<20} {:<18} {a:>14.4} -> {b:>14.4}  {:+6.1}% (bound {:.0}%)  {verdict}",
                w.name,
                m.name,
                change * 100.0,
                m.bound * 100.0
            );
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
