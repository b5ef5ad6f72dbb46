//! `ledger` — the benchmark record every change is compared against.
//!
//! ```text
//! ledger <parent-rev> <change-rev> <out.json>
//! ```
//!
//! Run from the repository root. Everything about the benchmark comes
//! from `BENCHMARK.json`: the command that runs `dcbench`, the workloads,
//! the run length, the gated end-to-end metrics with their bounds and the
//! per-layer metrics. Both revisions are checked out as detached git
//! worktrees under `target/ledger/`, and the command runs inside each, so
//! a side's first run builds it. Per workload, 10 untraced pairs give the
//! end-to-end metrics and 3 traced pairs the per-layer ones; both sides of
//! a pair get the same seed, and the parent goes first in odd pairs. A
//! run that exits non-zero (dcbench's own watchdog exits 3) is recorded
//! as failed, never dropped. A memcpy and a `select_range` probe before
//! and after all runs show how fast the host was at the time.
//!
//! `<out.json>` holds both revisions, the host, the probes, per side the
//! failed-run share and the operations `dcbench` attempted and failed,
//! and per workload and metric each side's runs (`null` for a failed run),
//! median and quartiles, the change's pair wins, the median change/parent
//! ratio over the pairs the parent ran first and over those the change ran
//! first (apart, they show a run-order effect the alternation hides), the
//! paired effect (the median change/parent ratio over all pairs with a
//! distribution-free interval, see [`paired_effect`]) and, for a gated
//! metric, a verdict (see [`verdict`]). The markdown pair table of the
//! gated metrics is printed to stdout.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use datacell_bat::select::select_range;
use datacell_bat::types::Value;
use datacell_bat::Bat;

/// Untraced pairs per workload (seeds 1..=PAIRS).
const PAIRS: u64 = 10;
/// Traced pairs per workload (seeds 1..=TRACED_PAIRS).
const TRACED_PAIRS: u64 = 3;
/// How long each calibration probe runs.
const PROBE_TIME: Duration = Duration::from_millis(300);

// ------------------------------ JSON ------------------------------

/// A parsed JSON value; objects keep their key order.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut s = text.as_bytes();
        let v = value(&mut s)?;
        match s.trim_ascii_start() {
            [] => Ok(v),
            rest => Err(format!("trailing input: {}", String::from_utf8_lossy(rest))),
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at `path` of object keys.
    fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |j, k| j.get(k))
    }

    fn num(&self, path: &[&str]) -> Option<f64> {
        match self.at(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Consume `b` (after whitespace) from the front of `s`.
fn eat(s: &mut &[u8], b: u8) -> Result<(), String> {
    *s = s.trim_ascii_start();
    match s.split_first() {
        Some((&c, rest)) if c == b => {
            *s = rest;
            Ok(())
        }
        _ => Err(format!("expected '{}'", b as char)),
    }
}

/// Parse one value from the front of `s`.
fn value(s: &mut &[u8]) -> Result<Json, String> {
    *s = s.trim_ascii_start();
    match s.first() {
        Some(b'"') => string(s).map(Json::Str),
        Some(&open @ (b'[' | b'{')) => {
            let (mut items, mut fields) = (Vec::new(), Vec::new());
            *s = &s[1..];
            // `]` and `}` are two bytes after `[` and `{`.
            while eat(s, open + 2).is_err() {
                if !items.is_empty() || !fields.is_empty() {
                    eat(s, b',')?;
                }
                if open == b'[' {
                    items.push(value(s)?);
                } else {
                    let key = string(s)?;
                    eat(s, b':')?;
                    fields.push((key, value(s)?));
                }
            }
            Ok(if open == b'[' {
                Json::Arr(items)
            } else {
                Json::Obj(fields)
            })
        }
        _ => {
            let len = s
                .iter()
                .take_while(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b));
            let (word, rest) = s.split_at(len.count());
            *s = rest;
            match word {
                b"null" => Ok(Json::Null),
                b"true" | b"false" => Ok(Json::Bool(word == b"true")),
                _ => {
                    let word = String::from_utf8_lossy(word);
                    let n = word.parse().map_err(|_| format!("bad value {word:?}"))?;
                    Ok(Json::Num(n))
                }
            }
        }
    }
}

/// Parse a string (a `\u` escape outside the BMP is not paired).
fn string(s: &mut &[u8]) -> Result<String, String> {
    eat(s, b'"')?;
    let mut out = String::new();
    let text = std::str::from_utf8(s).map_err(|e| e.to_string())?;
    let mut chars = text.char_indices();
    while let Some((i, c)) = chars.next() {
        out.push(match c {
            '"' => {
                *s = &s[i + 1..];
                return Ok(out);
            }
            '\\' => match chars.next().map_or(' ', |(_, e)| e) {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'u' => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    let code = u32::from_str_radix(&hex, 16).ok();
                    code.and_then(char::from_u32).unwrap_or('\u{fffd}')
                }
                e => e,
            },
            c => c,
        });
    }
    Err("unterminated string".into())
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let quote = |s: &str, f: &mut fmt::Formatter<'_>| {
            f.write_char('"')?;
            for c in s.chars() {
                match c {
                    '"' | '\\' => write!(f, "\\{c}")?,
                    c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                    c => f.write_char(c)?,
                }
            }
            f.write_char('"')
        };
        match self {
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Null | Json::Num(_) => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => quote(s, f),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i == 0 { "" } else { ", " })?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { ", " })?;
                    quote(k, f)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

// --------------------------- the benchmark ---------------------------

/// One metric `BENCHMARK.json` names; `bound` is set for gated ones.
struct Metric {
    name: String,
    unit: String,
    higher: bool,
    bound: Option<f64>,
}

/// What the ledger reads from `BENCHMARK.json`.
struct Spec {
    command: Vec<String>,
    workloads: Vec<String>,
    run_seconds: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let j = Json::parse(text)?;
        let bad = |k: &str| format!("BENCHMARK.json: malformed {k}");
        let list = |k: &str| j.get(k).map(Json::arr).ok_or_else(|| bad(k));
        // `v[k]` when `v` is an object, else `v` itself, as a string.
        let text = |v: &Json, k: &str| {
            let s = v.get(k).unwrap_or(v).str();
            s.map(String::from).ok_or_else(|| bad(k))
        };
        let texts = |k: &str, field: &str| -> Result<Vec<String>, String> {
            list(k)?.iter().map(|v| text(v, field)).collect()
        };
        let metrics = |k: &str| -> Result<Vec<Metric>, String> {
            let metric = |m: &Json| {
                Ok(Metric {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    higher: text(m, "better")? == "higher",
                    bound: m.num(&["bound"]),
                })
            };
            list(k)?.iter().map(metric).collect()
        };
        Ok(Spec {
            command: texts("command", "command")?,
            workloads: texts("workloads", "name")?,
            run_seconds: j.num(&["run_seconds"]).ok_or_else(|| bad("run_seconds"))? as u64,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// One `dcbench` run: its `metric` lines and its final JSON line.
#[derive(Default)]
struct Run {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Run {
    /// Read a run's stdout; `exited_ok` is whether the process exited 0.
    fn parse(stdout: &str, exited_ok: bool) -> Run {
        let mut run = Run::default();
        for line in stdout.lines() {
            if let ["metric", name, v, ..] = line.split_whitespace().collect::<Vec<_>>()[..] {
                run.metrics
                    .extend(v.parse().ok().map(|v| (name.to_string(), v)));
            }
        }
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        if let Some(Ok(j)) = last.map(Json::parse) {
            run.attempted = j.num(&["attempted"]).unwrap_or(0.0) as u64;
            run.failed = j.num(&["failed"]).unwrap_or(0.0) as u64;
            run.ok = exited_ok && j.get("correct") == Some(&Json::Bool(true));
        }
        run
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).copied().filter(|_| self.ok)
    }
}

/// A pair: `(parent, change)`, same workload, seed and tracing.
type Pair = (Run, Run);

/// Per workload: the untraced and the traced pairs.
type Runs = BTreeMap<String, [Vec<Pair>; 2]>;

/// Linear-interpolation quartiles `[q1, median, q3]`; `None` when empty.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let h = (v.len() - 1) as f64 * p;
        let (lo, hi) = (v[h.floor() as usize], v[h.ceil() as usize]);
        lo + (h - h.floor()) * (hi - lo)
    };
    (!v.is_empty()).then(|| [at(0.25), at(0.5), at(0.75)])
}

/// The `simplicity-review` verdict on a gated metric, given each side's
/// successful runs and the change's wins out of `pairs` pairs run:
///
/// - `better`: the change wins at least nine tenths of the pairs, its
///   median beats the parent's by more than the parent's quartile spread,
///   and no more of its runs failed;
/// - `unresolved`: the parent's quartile spread exceeds the bound, unless
///   every change run beats every parent run (or a side has no run);
/// - `worse`: the change median is worse by more than the bound;
/// - `inside`: otherwise.
fn verdict(m: &Metric, parent: &[f64], change: &[f64], wins: usize, pairs: usize) -> &'static str {
    let (Some(p), Some(c)) = (quartiles(parent), quartiles(change)) else {
        return "unresolved";
    };
    let bound = m.bound.unwrap_or(0.0) * p[1].abs();
    let beats = |a: f64, b: f64| if m.higher { a > b } else { a < b };
    let gain = if m.higher { c[1] - p[1] } else { p[1] - c[1] };
    let spread = p[2] - p[0];
    if 10 * wins >= 9 * pairs && gain > spread && change.len() >= parent.len() {
        "better"
    } else if change.iter().all(|&c| parent.iter().all(|&p| beats(c, p))) {
        "inside"
    } else if spread > bound {
        "unresolved"
    } else if -gain > bound {
        "worse"
    } else {
        "inside"
    }
}

/// The paired effect over per-pair change/parent `ratios`: their median
/// and an interval for it from their order statistics, the sign test's
/// distribution-free interval. It runs from the `k`-th smallest to the
/// `k`-th largest ratio, for the largest `k` whose coverage
/// `1 - 2·P(B ≤ k - 1)`, `B ~ Binomial(n, ½)`, is still at least 95 %;
/// with too few pairs for that it spans them all. Returns `[median, lo,
/// hi, coverage]`, or `None` without a ratio.
fn paired_effect(ratios: &[f64]) -> Option<[f64; 4]> {
    let median = quartiles(ratios)?[1];
    let mut r = ratios.to_vec();
    r.sort_by(f64::total_cmp);
    let n = r.len();
    // P(B <= j), accumulated term by term: C(n, i) / 2^n.
    let below = |j: usize| {
        let (mut term, mut sum) = (0.5f64.powi(n as i32), 0.0);
        for i in 0..=j {
            sum += term;
            term *= (n - i) as f64 / (i + 1) as f64;
        }
        sum
    };
    let coverage = |k: usize| 1.0 - 2.0 * below(k - 1);
    let k = (1..=n.div_ceil(2))
        .take_while(|&k| k == 1 || coverage(k) >= 0.95)
        .last()
        .expect("one ratio at least");
    Some([median, r[k - 1], r[n - k], coverage(k)])
}

/// Metric `m` over `pairs`: each side's runs and quartiles, the change's
/// pair wins, the median change/parent ratio by which side ran first, the
/// paired effect and, for a gated metric, the verdict.
fn summarize(m: &Metric, pairs: &[Pair]) -> Json {
    let parent: Vec<_> = pairs.iter().map(|p| p.0.value(&m.name)).collect();
    let change: Vec<_> = pairs.iter().map(|p| p.1.value(&m.name)).collect();
    let beats = |(p, c): (f64, f64)| if m.higher { c > p } else { c < p };
    let wins = parent
        .iter()
        .zip(&change)
        .filter(|(p, c)| p.zip(**c).is_some_and(beats));
    let wins = wins.count();
    let ok = |v: &[Option<f64>]| v.iter().flatten().copied().collect::<Vec<f64>>();
    let (p, c) = (ok(&parent), ok(&change));
    let side = |runs: &[Option<f64>], vals: &[f64]| {
        let [q1, median, q3] =
            quartiles(vals).map_or([(); 3].map(|()| Json::Null), |q| q.map(Json::Num));
        let runs = runs
            .iter()
            .map(|v| v.map_or(Json::Null, Json::Num))
            .collect();
        obj([
            ("runs", Json::Arr(runs)),
            ("median", median),
            ("q1", q1),
            ("q3", q3),
        ])
    };
    // The parent runs first in odd pairs (0-based index even).
    let ratio = |skip: usize| {
        let both = parent.iter().zip(&change).skip(skip).step_by(2);
        let ratios: Vec<f64> = both
            .filter_map(|(p, c)| Some(c.as_ref()? / p.as_ref()?))
            .collect();
        quartiles(&ratios).map_or(Json::Null, |q| Json::Num(q[1]))
    };
    let ratios: Vec<f64> = parent
        .iter()
        .zip(&change)
        .filter_map(|(p, c)| Some(c.as_ref()? / p.as_ref()?))
        .collect();
    let [median, lo, hi, coverage] =
        paired_effect(&ratios).map_or([(); 4].map(|()| Json::Null), |e| e.map(Json::Num));
    let verdict = m.bound.map(|_| verdict(m, &p, &c, wins, pairs.len()));
    let verdict = verdict.map_or(Json::Null, |v| Json::Str(v.into()));
    obj([
        ("unit", Json::Str(m.unit.clone())),
        ("parent", side(&parent, &p)),
        ("change", side(&change, &c)),
        ("change_wins", Json::Num(wins as f64)),
        ("pairs", Json::Num(pairs.len() as f64)),
        ("ratio_parent_first", ratio(0)),
        ("ratio_change_first", ratio(1)),
        ("pair_ratio_median", median),
        ("pair_ratio_lo", lo),
        ("pair_ratio_hi", hi),
        ("pair_ratio_coverage", coverage),
        ("verdict", verdict),
    ])
}

/// The ledger file: `head` (revisions, host, probes), then the failed
/// share and operations per side and the summaries of `runs` (per
/// workload: untraced and traced pairs).
fn ledger(spec: &Spec, mut head: Vec<(String, Json)>, runs: &Runs) -> Json {
    let all: Vec<&Pair> = runs.values().flatten().flatten().collect();
    let side = |pick: fn(&Pair) -> &Run| {
        let sum =
            |f: fn(&Run) -> u64| Json::Num(all.iter().map(|p| f(pick(p))).sum::<u64>() as f64);
        let failed = all.iter().filter(|p| !pick(p).ok).count() as f64;
        obj([
            ("failed_run_share", Json::Num(failed / all.len() as f64)),
            ("ops_attempted", sum(|r| r.attempted)),
            ("ops_failed", sum(|r| r.failed)),
        ])
    };
    let workloads = runs.iter().map(|(w, [untraced, traced])| {
        let gated = spec.end_to_end.iter().map(|m| (m, untraced));
        let metrics = gated.chain(spec.per_layer.iter().map(|m| (m, traced)));
        let metrics = metrics.map(|(m, pairs)| (m.name.clone(), summarize(m, pairs)));
        (w.clone(), Json::Obj(metrics.collect()))
    });
    let sides = obj([("parent", side(|p| &p.0)), ("change", side(|p| &p.1))]);
    head.extend([
        ("run_seconds".into(), Json::Num(spec.run_seconds as f64)),
        ("sides".into(), sides),
        ("workloads".into(), Json::Obj(workloads.collect())),
    ]);
    Json::Obj(head)
}

/// Three significant digits, in exponent form from 10 000 up.
fn sig(v: f64) -> String {
    let digits = (2.0 - v.abs().log10().floor()).clamp(0.0, 6.0) as usize * usize::from(v != 0.0);
    match v.abs() < 1e4 {
        true => format!("{v:.digits$}"),
        false => format!("{v:.2e}"),
    }
}

/// The markdown pair table of the gated metrics in a ledger file.
fn table(spec: &Spec, ledger: &Json) -> String {
    let mut out = String::from(
        "| workload | metric | parent | change | change/parent | change better | verdict | \
         pair ratio [interval] |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let at = |path: &[&str]| ledger.at(&[&["workloads", w, &m.name], path].concat());
            let n = |path: &[&str]| at(path).and_then(|v| v.num(&[]));
            let side = |s| match (n(&[s, "median"]), n(&[s, "q1"]), n(&[s, "q3"])) {
                (Some(med), Some(q1), Some(q3)) => {
                    (format!("{} [{}–{}]", sig(med), sig(q1), sig(q3)), med)
                }
                _ => ("—".into(), f64::NAN),
            };
            let ((p, pm), (c, cm)) = (side("parent"), side("change"));
            let wins = n(&["change_wins"]).unwrap_or(0.0);
            let pairs = n(&["pairs"]).unwrap_or(0.0);
            let verdict = at(&["verdict"]).and_then(Json::str).unwrap_or("—");
            let (name, unit, ratio) = (&m.name, &m.unit, cm / pm);
            let paired = match ["median", "lo", "hi"].map(|k| n(&[&format!("pair_ratio_{k}")])) {
                [Some(med), Some(lo), Some(hi)] => format!("{med:.2} [{lo:.2}–{hi:.2}]"),
                _ => "—".into(),
            };
            let row = format!("| {p} | {c} | {ratio:.2} | {wins}/{pairs} | {verdict} | {paired} |");
            let _ = writeln!(out, "| `{w}` | {name} ({unit}) {row}");
        }
    }
    out
}

// ----------------------------- running -----------------------------

/// Memcpy and `select_range` throughput over 32 MiB, GB/s.
fn probe() -> Json {
    const N: usize = 1 << 22;
    fn gb_s(mut f: impl FnMut()) -> Json {
        let (started, mut calls) = (Instant::now(), 0);
        while started.elapsed() < PROBE_TIME {
            f();
            calls += 1;
        }
        Json::Num((calls * N * 8) as f64 / started.elapsed().as_secs_f64() / 1e9)
    }
    let (src, mut dst) = (vec![7u8; N * 8], vec![0u8; N * 8]);
    let memcpy = gb_s(|| std::hint::black_box(&mut dst).copy_from_slice(&src));
    let col = Bat::from_ints((0..N as i64).map(|i| i % 1000).collect());
    let (lo, hi) = (Value::Int(0), Value::Int(499));
    let select = gb_s(|| {
        let c = select_range(&col, Some(&lo), Some(&hi), true, true, false, None);
        std::hint::black_box(c.expect("an int range select"));
    });
    obj([("memcpy_gb_s", memcpy), ("select_range_gb_s", select)])
}

fn host() -> Json {
    let read = |p| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = read("/proc/sys/kernel/osrelease");
    obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu.map_or("", |c| c.1).trim().into())),
        ("kernel", Json::Str(kernel.trim().into())),
    ])
}

fn git(args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").args(args).output();
    let out = out.map_err(|e| format!("git: {e}"))?;
    let text = |b: &[u8]| String::from_utf8_lossy(b).trim().to_string();
    match out.status.success() {
        true => Ok(text(&out.stdout)),
        false => Err(format!("git {}: {}", args.join(" "), text(&out.stderr))),
    }
}

/// A detached checkout, removed when dropped (on every exit, panics too).
struct Worktree(PathBuf);

impl Worktree {
    fn add(path: PathBuf, commit: &str) -> Result<Worktree, String> {
        let p = path.to_str().ok_or("worktree path is not UTF-8")?;
        // A checkout left by a killed run would block `add`.
        let _ = git(&["worktree", "remove", "--force", p]);
        git(&["worktree", "prune"])?;
        git(&["worktree", "add", "--detach", p, commit])?;
        Ok(Worktree(path))
    }

    /// One `dcbench` run of the benchmark's command in this checkout.
    fn run(&self, spec: &Spec, workload: &str, seed: u64, trace: u8) -> Run {
        let secs = spec.run_seconds;
        let args = format!("--workload {workload} --seed {seed} --seconds {secs} --trace {trace}");
        let mut cmd = Command::new(&spec.command[0]);
        cmd.args(&spec.command[1..]).args(args.split(' '));
        let out = cmd.current_dir(&self.0).output();
        let out = out.unwrap_or_else(|e| panic!("{}: {e}", spec.command[0]));
        Run::parse(&String::from_utf8_lossy(&out.stdout), out.status.success())
    }
}

impl Drop for Worktree {
    fn drop(&mut self) {
        if let Err(e) = git(&["worktree", "remove", "--force", &self.0.to_string_lossy()]) {
            eprintln!("ledger: {e}");
        }
    }
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent_rev, change_rev, out] = &args[..] else {
        return Err("usage: ledger <parent-rev> <change-rev> <out.json>".into());
    };
    let spec = std::fs::read_to_string("BENCHMARK.json");
    let spec = Spec::parse(&spec.map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    if spec.command.is_empty() {
        return Err("BENCHMARK.json: empty command".into());
    }
    let commit = |rev: &str| git(&["rev-parse", "--verify", &format!("{rev}^{{commit}}")]);
    let commits = [commit(parent_rev)?, commit(change_rev)?];
    let root = PathBuf::from(git(&["rev-parse", "--show-toplevel"])?).join("target/ledger");
    let parent = Worktree::add(root.join("parent"), &commits[0])?;
    let change = Worktree::add(root.join("change"), &commits[1])?;
    let before = probe();
    let mut runs = BTreeMap::new();
    for w in &spec.workloads {
        let mut sets: [Vec<Pair>; 2] = Default::default();
        for (trace, count) in [(0, PAIRS), (1, TRACED_PAIRS)] {
            for seed in 1..=count {
                // Rotating the two sides by one swaps them: the change
                // runs first in even pairs.
                let swap = usize::from(seed % 2 == 0);
                let mut order = [&parent, &change];
                order.rotate_left(swap);
                let mut pair = order.map(|side| side.run(&spec, w, seed, trace));
                pair.rotate_left(swap);
                let [p, c] = pair;
                eprintln!(
                    "ledger: {w} seed {seed} trace {trace}: ok {}/{}",
                    p.ok, c.ok
                );
                sets[usize::from(trace)].push((p, c));
            }
        }
        runs.insert(w.clone(), sets);
    }
    let after = probe();
    drop((parent, change));

    let [parent_commit, change_commit] = commits;
    let rev = |r: &str, commit| obj([("rev", Json::Str(r.into())), ("commit", Json::Str(commit))]);
    let head = vec![
        ("parent".into(), rev(parent_rev, parent_commit)),
        ("change".into(), rev(change_rev, change_commit)),
        ("host".into(), host()),
        ("probe".into(), obj([("before", before), ("after", after)])),
    ];
    let ledger = ledger(&spec, head, &runs);
    std::fs::write(out, format!("{ledger}\n")).map_err(|e| format!("{out}: {e}"))?;
    print!("{}", table(&spec, &ledger));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));
        Spec::parse(text).unwrap()
    }

    /// A successful run's stdout with every gated metric at `v`.
    fn canned(spec: &Spec, v: f64) -> String {
        let metric = |m: &Metric| format!("metric {} {v} {}\n", m.name, m.unit);
        let lines: String = spec.end_to_end.iter().map(metric).collect();
        let last = r#"{"correct": true, "attempted": 100, "failed": 0, "metrics": {}}"#;
        format!("# dcbench workload=w\n{lines}{last}\n")
    }

    #[test]
    fn parses_dcbench_output_and_failed_runs() {
        let ok = Run::parse(&canned(&spec(), 2.5), true);
        assert!(ok.ok);
        assert_eq!((ok.attempted, ok.failed, ok.metrics.len()), (100, 0, 5));
        assert_eq!(ok.value("latency_p50_us"), Some(2.5));
        // Exit 1, and a final line reporting failed operations.
        let wrong = r#"{"correct": false, "attempted": 10, "failed": 3}"#;
        let wrong = Run::parse(&format!("metric throughput_tps 5 1/s\n{wrong}"), false);
        assert_eq!((wrong.ok, wrong.attempted, wrong.failed), (false, 10, 3));
        assert_eq!(wrong.value("throughput_tps"), None, "no values");
        // The watchdog: exit 3 and no final JSON line.
        assert!(!Run::parse("# dcbench workload=w\nmetric setup_s 0.1 s\n", false).ok);
        // A clean exit without the final line is no success either.
        assert!(!Run::parse("metric setup_s 0.1 s\n", true).ok);
    }

    #[test]
    fn quartiles_of_known_vectors() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some([7.0, 7.0, 7.0]));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some([1.75, 2.5, 3.25]));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([2.0, 3.0, 4.0]));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([3.25, 5.5, 7.75]));
    }

    #[test]
    fn every_verdict_branch() {
        let s = spec();
        // throughput_tps (higher is better) and latency_p50_us, bound 0.25.
        let (tps, lat) = (&s.end_to_end[0], &s.end_to_end[1]);
        let tight = [99.0, 100.0, 100.0, 101.0];
        // Better: 9/10 pairs and a median gain beyond the parent's spread.
        assert_eq!(verdict(tps, &tight, &[110.0; 4], 9, 10), "better");
        assert_eq!(verdict(lat, &tight, &[90.0; 4], 10, 10), "better");
        // Too few pair wins: a clear median gain is only inside.
        assert_eq!(verdict(tps, &tight, &[110.0; 4], 8, 10), "inside");
        // A failed change run forfeits the gain.
        let mut ten = [100.0; 10];
        (ten[0], ten[1]) = (99.0, 101.0);
        assert_eq!(verdict(tps, &ten, &[110.0; 10], 9, 10), "better");
        assert_eq!(verdict(tps, &ten, &[110.0; 9], 9, 10), "inside");
        // Worse beyond the bound, and worse but inside it.
        assert_eq!(verdict(tps, &tight, &[70.0; 4], 0, 4), "worse");
        assert_eq!(verdict(lat, &tight, &[130.0; 4], 0, 4), "worse");
        assert_eq!(verdict(tps, &tight, &[80.0; 4], 0, 4), "inside");
        // The parent's spread exceeds the bound: unresolved...
        let wide = [50.0, 80.0, 120.0, 150.0];
        assert_eq!(verdict(tps, &wide, &[60.0; 4], 0, 4), "unresolved");
        assert_eq!(verdict(tps, &wide, &[100.0; 4], 2, 4), "unresolved");
        // ...unless every change run beats every parent run.
        assert_eq!(
            verdict(tps, &wide, &[151.0, 151.0, 151.0, 400.0], 3, 4),
            "inside"
        );
        assert_eq!(verdict(tps, &wide, &[200.0; 4], 4, 4), "better");
        // A side without a single good run.
        assert_eq!(verdict(tps, &tight, &[], 0, 4), "unresolved");
    }

    #[test]
    fn ledger_file_reads_back_with_every_gated_metric() {
        let s = spec();
        let run = |v: u64| Run::parse(&canned(&s, v as f64), true);
        let pairs = |n| {
            (1..=n)
                .map(|k| (run(10 + k), run(11 + k)))
                .collect::<Vec<_>>()
        };
        let mut runs = BTreeMap::new();
        for w in &s.workloads {
            let mut untraced = pairs(PAIRS);
            untraced[3].1 = Run::parse("", false);
            runs.insert(w.clone(), [untraced, pairs(TRACED_PAIRS)]);
        }
        let written = ledger(&s, vec![("host".into(), host())], &runs);
        let path = std::env::temp_dir().join(format!("ledger-test-{}.json", std::process::id()));
        std::fs::write(&path, format!("{written}\n")).unwrap();
        let back = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, written);
        let side = |s, k| back.num(&["sides", s, k]);
        assert_eq!(side("parent", "failed_run_share"), Some(0.0));
        assert_eq!(side("change", "failed_run_share"), Some(1.0 / 13.0));
        assert_eq!(side("parent", "ops_attempted"), Some(5200.0));
        for w in &s.workloads {
            for m in &s.end_to_end {
                let e = back
                    .at(&["workloads", w, &m.name])
                    .expect("every gated metric");
                let runs = e.at(&["change", "runs"]).unwrap().arr();
                assert_eq!((runs.len(), &runs[3]), (PAIRS as usize, &Json::Null));
                let wins = if m.higher { 9.0 } else { 0.0 };
                assert_eq!(e.num(&["change_wins"]), Some(wins));
                assert_eq!(e.num(&["parent", "median"]), Some(15.5));
                assert!(e.at(&["verdict"]).and_then(Json::str).is_some());
            }
            let p99 = back.at(&["workloads", w, "latency_p99_us", "verdict"]);
            assert_eq!(p99, Some(&Json::Null), "per-layer metrics get no verdict");
        }
        let t = table(&s, &back);
        let rows = 2 + s.workloads.len() * s.end_to_end.len();
        assert_eq!(t.lines().count(), rows);
        let row = "| `wire_filter` | throughput_tps (1/s) | 15.5 [13.2–17.8] | 17.0 [14.0–19.0] |";
        let want = format!("{row} 1.10 | 9/10 | unresolved |");
        assert!(t.contains(&want), "{t}");
        let small = [sig(7621214.5), sig(0.000506), sig(0.0)];
        assert_eq!(small, ["7.62e6", "0.000506", "0"]);
    }

    #[test]
    fn run_order_ratios_split_the_pairs() {
        let s = spec();
        let run = |v: f64| Run::parse(&canned(&s, v), true);
        // Whoever runs second is twice as fast: the change in the odd
        // pairs, where the parent goes first, the parent in the even ones.
        let mut pairs: Vec<Pair> = (0..PAIRS)
            .map(|k| match k % 2 {
                0 => (run(100.0), run(200.0)),
                _ => (run(200.0), run(100.0)),
            })
            .collect();
        pairs[2].0 = Run::parse("", false);
        let e = summarize(&s.end_to_end[0], &pairs);
        assert_eq!(e.num(&["ratio_parent_first"]), Some(2.0));
        assert_eq!(e.num(&["ratio_change_first"]), Some(0.5));
        let none = summarize(&s.end_to_end[0], &pairs[..1]);
        assert_eq!(none.at(&["ratio_change_first"]), Some(&Json::Null));
    }

    #[test]
    fn paired_effect_is_the_sign_test_interval() {
        // Ten pairs: the 2nd smallest to the 2nd largest ratio covers
        // 1 - 2·11/1024 of the time (the 3rd would cover only 89 %).
        let ten = [1.3, 0.9, 1.1, 1.8, 1.0, 1.2, 1.5, 1.4, 1.6, 1.7];
        let [median, lo, hi, coverage] = paired_effect(&ten).unwrap();
        assert!((median - 1.35).abs() < 1e-12);
        assert_eq!((lo, hi), (1.0, 1.7));
        assert_eq!(coverage, 1.0 - 22.0 / 1024.0);
        // Three traced pairs reach no 95 %: the interval spans them all.
        assert_eq!(paired_effect(&[1.2, 0.8, 1.0]), Some([1.0, 0.8, 1.2, 0.75]));
        assert_eq!(paired_effect(&[2.0]), Some([2.0, 2.0, 2.0, 0.0]));
        assert_eq!(paired_effect(&[]), None);
    }

    #[test]
    fn json_round_trips_escapes_and_nesting() {
        let text = r#"{"a": [1, -2.5e3, true, null], "b\"\né": {"c": "é\u0001"}, "d": []}"#;
        let j = Json::parse(text).unwrap();
        assert_eq!(j.at(&["b\"\né", "c"]).and_then(Json::str), Some("é\u{1}"));
        assert_eq!(j.get("a").unwrap().arr()[1], Json::Num(-2500.0));
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        for bad in ["{\"a\": 1,}", "[1 2]", "{} x", "\"open", "[1,]", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
