//! The Linear Road continuous-query set wired on DataCell.
//!
//! Topology (all places are DataCell baskets, the core is a scheduler
//! transition):
//!
//! ```text
//!            ┌────────────▶ toll_out ───▶ (emitter / validator)
//! lr_in ───▶ LrCore ─────▶ acc_out
//!            │  ▲   └────▶ bal_out
//!            │  └ history table (kernel scan+select+sum)
//!            └───────────▶ daily_out
//! ```
//!
//! Benchmark rules implemented (Arasu et al., VLDB'04, simplified to the
//! type-0/2/3 workload):
//!
//! * **segment statistics** — NOV(x,d,s,m) = distinct vehicles in segment
//!   during minute `m`; LAV(x,d,s,m) = average speed over minutes
//!   `m-5..m-1`.
//! * **accident detection** — a vehicle is *stopped* after 4 consecutive
//!   identical reports; an *accident* is ≥2 vehicles stopped at the same
//!   position; it clears when fewer than 2 remain.
//! * **tolls** — assessed when a vehicle *enters* a segment: 0 if
//!   LAV ≥ 40 mph or NOV ≤ 50 or an accident lies within 4 segments
//!   downstream (an accident alert is emitted instead); otherwise
//!   `2·(NOV−50)²`. The previously assessed toll is charged to the account
//!   when the vehicle leaves its segment.
//! * **account balance / daily expenditure** — balance from charged tolls;
//!   expenditure answered from the `history` table via kernel scan +
//!   select + sum (relational reuse, not a bespoke lookup path).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use datacell::basket::{Basket, ReaderLease};
use datacell::error::{DataCellError, Result};
use datacell::factory::{FactoryOutput, StepOutcome};
use datacell::outbox::Outbox;
use datacell::petri::Places;
use datacell::scheduler::{SchedulePolicy, Transition};
use datacell::text::ChunkBuilder;
use datacell::DataCell;
use datacell_bat::aggregate::{scalar_agg, AggFunc};
use datacell_bat::column::Column;
use datacell_bat::select::{theta_select, CmpOp};
use datacell_bat::types::Value;
use datacell_bat::Bat;
use datacell_engine::Catalog;
use parking_lot::Mutex;

use crate::gen::LrRecord;

/// How many minutes of history the LAV uses.
const LAV_MINUTES: i64 = 5;
/// Reports that must be identical for a vehicle to count as stopped.
const STOPPED_REPORTS: usize = 4;
/// Downstream segments suppressed by an accident.
const ACCIDENT_RANGE: i64 = 4;

/// The core's outputs, by index into [`LrCore::outputs`].
const TOLL: usize = 0;
const ACC: usize = 1;
const BAL: usize = 2;
const DAILY: usize = 3;

/// One firing's rows for each output, in [`LrCore::outputs`] order.
type Rows = [ChunkBuilder; 4];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegKey {
    xway: i64,
    dir: i64,
    seg: i64,
}

#[derive(Debug, Default)]
struct MinuteStats {
    vehicles: HashSet<i64>,
    speed_sum: i64,
    speed_count: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LastReport {
    xway: i64,
    lane: i64,
    dir: i64,
    seg: i64,
    pos: i64,
    speed: i64,
}

#[derive(Debug, Default)]
struct VehicleState {
    /// Trailing identical-report run (for stopped detection).
    same_run: usize,
    last: Option<LastReport>,
    /// Toll assessed on segment entry, charged on exit.
    pending_toll: i64,
    balance: i64,
    last_toll_time: i64,
}

#[derive(Debug, Default)]
struct CoreState {
    vehicles: HashMap<i64, VehicleState>,
    /// (key, minute) → stats; pruned as minutes age out.
    stats: HashMap<(SegKey, i64), MinuteStats>,
    /// Stopped vehicles per (key, pos).
    stopped: HashMap<(SegKey, i64), HashSet<i64>>,
    /// Active accident segments.
    accidents: HashSet<SegKey>,
    max_minute_seen: i64,
}

/// The Linear Road core transition: consumes `lr_in`, emits to the four
/// output baskets, answers historical queries against the `history` table.
pub struct LrCore {
    /// The core's reader on `lr_in`: consumption goes through the engine's
    /// one reader protocol.
    input: ReaderLease,
    /// `toll_out`, `acc_out`, `bal_out` and `daily_out`.
    outputs: [Outbox; 4],
    state: Mutex<CoreState>,
}

impl LrCore {
    fn nov(state: &CoreState, key: SegKey, minute: i64) -> i64 {
        state
            .stats
            .get(&(key, minute - 1))
            .map_or(0, |s| s.vehicles.len() as i64)
    }

    fn lav(state: &CoreState, key: SegKey, minute: i64) -> Option<f64> {
        let mut sum = 0i64;
        let mut cnt = 0i64;
        for m in (minute - LAV_MINUTES)..minute {
            if let Some(s) = state.stats.get(&(key, m)) {
                sum += s.speed_sum;
                cnt += s.speed_count;
            }
        }
        (cnt > 0).then(|| sum as f64 / cnt as f64)
    }

    fn accident_ahead(state: &CoreState, key: SegKey) -> bool {
        (0..=ACCIDENT_RANGE).any(|d| {
            let seg = if key.dir == 0 {
                key.seg + d
            } else {
                key.seg - d
            };
            state.accidents.contains(&SegKey { seg, ..key })
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn position_report(
        state: &mut CoreState,
        out: &mut Rows,
        time: i64,
        vid: i64,
        speed: i64,
        xway: i64,
        lane: i64,
        dir: i64,
        seg: i64,
        pos: i64,
        ts: i64,
    ) -> Result<()> {
        let key = SegKey { xway, dir, seg };
        let minute = time / 60;

        // 1. Segment statistics.
        let stats = state.stats.entry((key, minute)).or_default();
        stats.vehicles.insert(vid);
        stats.speed_sum += speed;
        stats.speed_count += 1;
        if minute > state.max_minute_seen {
            state.max_minute_seen = minute;
            // Prune stats older than the LAV horizon.
            state
                .stats
                .retain(|&(_, m), _| m >= minute - LAV_MINUTES - 1);
        }

        // 2. Stopped-vehicle / accident tracking.
        let report = LastReport {
            xway,
            lane,
            dir,
            seg,
            pos,
            speed,
        };
        let (was, same_run) = {
            let v = state.vehicles.entry(vid).or_default();
            let same = v.last == Some(report);
            v.same_run = if same { v.same_run + 1 } else { 1 };
            (v.last, v.same_run)
        };
        if same_run >= STOPPED_REPORTS && speed == 0 {
            let entry = state.stopped.entry((key, pos)).or_default();
            entry.insert(vid);
            if entry.len() >= 2 {
                state.accidents.insert(key);
            }
        } else if let Some(prev) = was {
            // The vehicle moved: it no longer holds any stopped slot.
            let prev_key = SegKey {
                xway: prev.xway,
                dir: prev.dir,
                seg: prev.seg,
            };
            if let Some(set) = state.stopped.get_mut(&(prev_key, prev.pos)) {
                set.remove(&vid);
                if set.len() < 2 {
                    state.accidents.remove(&prev_key);
                }
            }
        }

        // 3. Segment crossing → charge pending toll, assess new toll.
        let crossed = was.is_none_or(|w| w.seg != seg || w.xway != xway || w.dir != dir);
        if crossed && lane != 4 {
            let nov = Self::nov(state, key, minute);
            let lav = Self::lav(state, key, minute);
            let accident = Self::accident_ahead(state, key);
            let toll = if accident || lav.is_none_or(|v| v >= 40.0) || nov <= 50 {
                0
            } else {
                2 * (nov - 50) * (nov - 50)
            };
            if accident {
                out[ACC].push_row(&[Value::Int(vid), Value::Int(time), Value::Int(seg)])?;
            }
            let v = state.vehicles.entry(vid).or_default();
            // Charge the toll assessed at the previous segment entry.
            v.balance += v.pending_toll;
            v.pending_toll = toll;
            v.last_toll_time = time;
            let lav_int = lav.unwrap_or(0.0).round() as i64;
            out[TOLL].push_row(&[
                Value::Int(vid),
                Value::Int(time),
                Value::Int(lav_int),
                Value::Int(toll),
                Value::Timestamp(ts),
            ])?;
        }
        {
            let v = state.vehicles.entry(vid).or_default();
            v.last = Some(report);
        }
        Ok(())
    }

    fn balance_query(
        state: &CoreState,
        out: &mut ChunkBuilder,
        time: i64,
        vid: i64,
        qid: i64,
    ) -> Result<()> {
        let balance = state.vehicles.get(&vid).map_or(0, |v| v.balance);
        out.push_row(&[
            Value::Int(qid),
            Value::Int(vid),
            Value::Int(balance),
            Value::Int(time),
        ])
    }

    fn daily_query(
        tables: Option<&Catalog>,
        out: &mut ChunkBuilder,
        time: i64,
        vid: i64,
        qid: i64,
        day: i64,
        xway: i64,
    ) -> Result<()> {
        // Relational path: scan the history table, select on vid/day/xway
        // with kernel primitives, sum the expenditure column.
        let total = match tables.and_then(|t| t.table("history").ok()) {
            None => 0,
            Some(table) => {
                let snap = table.snapshot();
                let vids = Bat::new(snap.columns[0].clone());
                let c1 = theta_select(&vids, CmpOp::Eq, &Value::Int(vid), None)?;
                let days = Bat::new(snap.columns[1].clone());
                let c2 = theta_select(&days, CmpOp::Eq, &Value::Int(day), Some(&c1))?;
                let xways = Bat::new(snap.columns[2].clone());
                let c3 = theta_select(&xways, CmpOp::Eq, &Value::Int(xway), Some(&c2))?;
                let spend = Bat::new(snap.columns[3].clone());
                match scalar_agg(AggFunc::Sum, &spend, Some(&c3))? {
                    Value::Int(v) => v,
                    _ => 0,
                }
            }
        };
        out.push_row(&[
            Value::Int(qid),
            Value::Int(vid),
            Value::Int(day),
            Value::Int(total),
            Value::Int(time),
        ])
    }
}

impl Transition for LrCore {
    fn name(&self) -> &str {
        "lr_core"
    }

    fn ready(&self) -> bool {
        Outbox::ready(&self.outputs, || self.input.pending() > 0)
    }

    fn step(&self, tables: Option<&Catalog>, max_tuples: usize) -> Result<StepOutcome> {
        // The claim commits the records applied to the core state, and
        // their rows go out through the outboxes, which hold what a full
        // output refuses: a failing record ends the firing with the
        // records before it applied, delivered and committed once. A
        // record emits at most one row per output, so claiming no more
        // records than every output has room for keeps what is held small.
        let budget = max_tuples.min(Outbox::free(&self.outputs));
        let (chunk, mut claim) = self.input.claim(budget);
        let n = chunk.len();
        let ints = chunk.columns[..11]
            .iter()
            .map(Column::as_ints)
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let [rtypes, times, vids, speeds, xways, lanes, dirs, segs, poss, qids, days] = ints[..]
        else {
            unreachable!("lr_in has eleven integer columns")
        };
        let ts = chunk.columns[11].as_timestamps()?;
        let mut out: Rows = self.outputs.each_ref().map(|o| {
            ChunkBuilder::new(o.basket().expect("lr_core writes to baskets").user_schema())
        });
        let mut state = self.state.lock();
        let mut applied = 0;
        let mut failure = (0..n)
            .try_for_each(|i| {
                match rtypes[i] {
                    0 => Self::position_report(
                        &mut state, &mut out, times[i], vids[i], speeds[i], xways[i], lanes[i],
                        dirs[i], segs[i], poss[i], ts[i],
                    ),
                    2 => Self::balance_query(&state, &mut out[BAL], times[i], vids[i], qids[i]),
                    3 => Self::daily_query(
                        tables,
                        &mut out[DAILY],
                        times[i],
                        vids[i],
                        qids[i],
                        days[i],
                        xways[i],
                    ),
                    other => Err(DataCellError::Runtime(format!(
                        "unknown Linear Road record type {other}"
                    ))),
                }?;
                applied += 1;
                Ok(())
            })
            .err();
        drop(state);
        claim.delivered(applied);
        let mut outcome = StepOutcome {
            tuples_in: n,
            consumed: applied,
            ..StepOutcome::default()
        };
        for (outbox, rows) in self.outputs.iter().zip(&out) {
            match outbox.deliver(Cow::Borrowed(rows.chunk()), None) {
                Ok(d) => {
                    outcome.produced += d.produced;
                    outcome.held += d.held;
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        failure.map_or(Ok(outcome), Err)
    }

    fn places(&self) -> Places {
        Places {
            inputs: vec![Arc::clone(self.input.basket())],
            outputs: self
                .outputs
                .iter()
                .filter_map(|o| o.basket().cloned())
                .collect(),
        }
    }

    fn detach(&self) {
        self.input.release();
    }
}

/// The wired Linear Road system.
pub struct LinearRoadSystem {
    /// The session holding the baskets, the `history` table and the
    /// scheduler that runs `lr_core`.
    pub cell: DataCell,
    /// Input basket (`lr_in`).
    pub input: Arc<Basket>,
    /// Toll notifications: `(vid, time, lav, toll, rts)`.
    pub toll_out: Arc<Basket>,
    /// Accident alerts: `(vid, time, seg)`.
    pub acc_out: Arc<Basket>,
    /// Balance answers: `(qid, vid, balance, time)`.
    pub bal_out: Arc<Basket>,
    /// Daily-expenditure answers: `(qid, vid, day, total, time)`.
    pub daily_out: Arc<Basket>,
}

impl LinearRoadSystem {
    /// Build the full topology. `history_rows` pre-loads the
    /// `history(vid, day, xway, expenditure)` table.
    pub fn new(history_rows: &[(i64, i64, i64, i64)]) -> Result<LinearRoadSystem> {
        let cell = DataCell::new();
        cell.execute_script(
            "create basket lr_in (rtype int, time int, vid int, speed int, xway int, \
                                  lane int, dir int, seg int, pos int, qid int, day int);
             -- rts: arrival timestamp of the triggering report, for
             -- end-to-end response-time accounting.
             create basket toll_out (vid int, time int, lav int, toll int, rts timestamp);
             create basket acc_out (vid int, time int, seg int);
             create basket bal_out (qid int, vid int, balance int, time int);
             create basket daily_out (qid int, vid int, day int, total int, time int);
             create table history (vid int, day int, xway int, expenditure int)",
        )?;
        {
            let catalog = cell.catalog();
            let mut cat = catalog.write();
            let table = cat.tables.table_mut("history")?;
            for &(vid, day, xway, exp) in history_rows {
                table.append_row(&[
                    Value::Int(vid),
                    Value::Int(day),
                    Value::Int(xway),
                    Value::Int(exp),
                ])?;
            }
        }
        let input = cell.basket("lr_in")?;
        let outputs = [
            cell.basket("toll_out")?,
            cell.basket("acc_out")?,
            cell.basket("bal_out")?,
            cell.basket("daily_out")?,
        ];
        let core = LrCore {
            input: ReaderLease::register(Arc::clone(&input), true),
            outputs: outputs
                .each_ref()
                .map(|b| Outbox::new(FactoryOutput::Basket(Arc::clone(b)))),
            state: Mutex::new(CoreState::default()),
        };
        cell.add_transition(Arc::new(core), SchedulePolicy::default())?;
        let [toll_out, acc_out, bal_out, daily_out] = outputs;
        Ok(LinearRoadSystem {
            input,
            toll_out,
            acc_out,
            bal_out,
            daily_out,
            cell,
        })
    }

    /// Feed a batch of records into the input basket.
    pub fn feed(&self, records: &[LrRecord]) -> Result<()> {
        let rows: Vec<Vec<Value>> = records.iter().map(LrRecord::to_row).collect();
        self.input.append_rows(&rows)
    }

    /// Drive the scheduler until quiescent (deterministic mode).
    pub fn drain(&self) -> u64 {
        self.cell.run_until_quiescent(10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TrafficConfig, TrafficSim};
    use datacell::petri::TransitionKind;

    fn positions(entries: &[(i64, i64, i64, i64)], // (time, vid, speed, seg)
    ) -> Vec<LrRecord> {
        entries
            .iter()
            .map(|&(time, vid, speed, seg)| LrRecord::Position {
                time,
                vid,
                speed,
                xway: 0,
                lane: 1,
                dir: 0,
                seg,
                pos: seg * 5280,
            })
            .collect()
    }

    #[test]
    fn toll_notification_on_segment_entry() {
        let sys = LinearRoadSystem::new(&[]).unwrap();
        sys.feed(&positions(&[(0, 1, 55, 10)])).unwrap();
        sys.drain();
        // Entering a fresh segment always notifies (toll may be 0).
        assert_eq!(sys.toll_out.len(), 1);
        let snap = sys.toll_out.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[1]);
        assert_eq!(snap.columns[3].as_ints().unwrap(), &[0], "free-flow toll");
    }

    #[test]
    fn congestion_creates_nonzero_toll() {
        let sys = LinearRoadSystem::new(&[]).unwrap();
        // Minute 0: 60 distinct slow vehicles in segment 10 (NOV=60>50,
        // speeds 20 mph < 40 LAV).
        let mut batch = Vec::new();
        for vid in 1..=60 {
            batch.extend(positions(&[(vid % 60, vid, 20, 10)]));
        }
        sys.feed(&batch).unwrap();
        sys.drain();
        // Minute 1: a newcomer enters segment 10.
        sys.feed(&positions(&[(65, 1000, 20, 10)])).unwrap();
        sys.drain();
        let snap = sys.toll_out.snapshot();
        let tolls = snap.columns[3].as_ints().unwrap();
        let expected = 2 * (60 - 50) * (60 - 50);
        assert_eq!(*tolls.last().unwrap(), expected, "toll = 2·(NOV−50)²");
    }

    #[test]
    fn accident_detected_and_alerts_emitted() {
        let sys = LinearRoadSystem::new(&[]).unwrap();
        // Two vehicles emit 4 identical stopped reports at segment 20.
        let mut batch = Vec::new();
        for k in 0..4 {
            for vid in [500, 501] {
                batch.push(LrRecord::Position {
                    time: k * 30,
                    vid,
                    speed: 0,
                    xway: 0,
                    lane: 2,
                    dir: 0,
                    seg: 20,
                    pos: 20 * 5280 + 100,
                });
            }
        }
        sys.feed(&batch).unwrap();
        sys.drain();
        // A vehicle enters segment 17 (within 4 downstream of 20): alert.
        sys.feed(&positions(&[(130, 9, 50, 17)])).unwrap();
        sys.drain();
        assert_eq!(sys.acc_out.len(), 1);
        let snap = sys.acc_out.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[9]);
        // And its toll is suppressed to 0.
        let tolls = sys.toll_out.snapshot();
        assert_eq!(*tolls.columns[3].as_ints().unwrap().last().unwrap(), 0);
    }

    #[test]
    fn balance_accumulates_charged_tolls() {
        let sys = LinearRoadSystem::new(&[]).unwrap();
        // Build congestion in segment 10 during minute 0.
        let mut batch = Vec::new();
        for vid in 1..=60 {
            batch.extend(positions(&[(vid % 60, vid, 20, 10)]));
        }
        sys.feed(&batch).unwrap();
        // Minute 1: vehicle 7 enters congested segment 10 (assessed), then
        // crosses into 11 (charged).
        sys.feed(&positions(&[(61, 777, 20, 10), (91, 777, 20, 11)]))
            .unwrap();
        sys.feed(&[LrRecord::AccountBalance {
            time: 92,
            vid: 777,
            qid: 1,
        }])
        .unwrap();
        sys.drain();
        let snap = sys.bal_out.snapshot();
        assert_eq!(snap.len(), 1);
        let balance = snap.columns[2].as_ints().unwrap()[0];
        assert_eq!(balance, 200, "charged toll 2·(60−50)² on segment exit");
    }

    #[test]
    fn daily_expenditure_answers_from_history_table() {
        let history = vec![(42, 3, 0, 25), (42, 3, 0, 17), (42, 4, 0, 99), (7, 3, 0, 1)];
        let sys = LinearRoadSystem::new(&history).unwrap();
        sys.feed(&[LrRecord::DailyExpenditure {
            time: 10,
            vid: 42,
            qid: 9,
            day: 3,
            xway: 0,
        }])
        .unwrap();
        sys.drain();
        let snap = sys.daily_out.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[9]);
        assert_eq!(snap.columns[3].as_ints().unwrap(), &[42], "25 + 17");
    }

    #[test]
    fn the_cell_draws_and_schedules_lr_core() {
        let sys = LinearRoadSystem::new(&[]).unwrap();
        let width = sys.input.user_width();
        assert_eq!(
            sys.input.schema().columns[..width],
            LrRecord::input_schema().columns[..],
            "lr_in's DDL matches the records fed into it"
        );
        let net = sys.cell.petri_net();
        assert_eq!(
            net.transitions,
            vec![("lr_core".to_string(), TransitionKind::Factory)]
        );
        assert_eq!(net.inputs, vec![("lr_in".into(), "lr_core".into())]);
        let mut outputs: Vec<&str> = net
            .outputs
            .iter()
            .map(|(t, place)| {
                assert_eq!(t, "lr_core");
                place.as_str()
            })
            .collect();
        outputs.sort_unstable();
        assert_eq!(outputs, ["acc_out", "bal_out", "daily_out", "toll_out"]);
        sys.feed(&positions(&[(0, 1, 55, 10)])).unwrap();
        sys.drain();
        let per_query = sys.cell.metrics().per_query;
        let core = per_query.iter().find(|q| q.name == "lr_core");
        assert_eq!(core.map(|q| q.firings), Some(1), "{per_query:?}");
    }

    #[test]
    fn full_generated_run_produces_all_outputs() {
        let sim = TrafficSim::generate(TrafficConfig {
            xways: 1,
            cars_per_xway_per_min: 20,
            duration_s: 600,
            accidents_per_xway: 1,
            balance_query_permille: 30,
            daily_query_permille: 20,
            seed: 11,
        });
        let history: Vec<(i64, i64, i64, i64)> =
            (1..50).map(|v| (v, 1 + v % 10, 0, (v * 13) % 50)).collect();
        let sys = LinearRoadSystem::new(&history).unwrap();
        sys.feed(sim.records()).unwrap();
        sys.drain();
        assert!(sys.toll_out.len() > 100, "tolls: {}", sys.toll_out.len());
        assert!(!sys.bal_out.is_empty());
        assert!(!sys.daily_out.is_empty());
        // Input fully consumed.
        assert!(sys.input.is_empty());
    }
}
