//! The §2.5 basket strategies, written as SQL against one [`DataCell`].
//!
//! N standing range queries `lo <= v <= hi` over one stream of `(v int)`
//! tuples, wired three ways with nothing but statements the session already
//! has:
//!
//! * **separate** — a private basket `s{i}` per query, the stream copied
//!   into each; the range sits *outside* the basket expression, so every
//!   query consumes its whole basket;
//! * **shared** — one basket `s`; each query puts its range *inside* the
//!   basket expression and plan sharing is on, so each range becomes a head
//!   that reads `s` through its own reader cursor (a tuple leaves `s` once
//!   every head has passed it) and a tail on the head's intermediate;
//! * **cascading** — the *same* statements with plan sharing off: each
//!   query is an exclusive consumer whose predicate window deletes only its
//!   own tuples (§2.6), conflict keys serialize the consumers, and later
//!   queries scan what earlier ones left. Where the ranges leave part of
//!   the domain uncovered, one complement query drains the leftovers,
//!   which would otherwise accumulate in `s`.

use std::ops::RangeInclusive;
use std::sync::Arc;

use datacell::{Basket, DataCell, DataCellError, Result, Value};

/// How the queries share the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wiring {
    /// A private basket and consuming query per range.
    Separate,
    /// One basket, predicate windows, plan sharing on.
    Shared,
    /// One basket, predicate windows, plan sharing off.
    Cascading,
}

/// Name of the cascade's complement query.
pub const COMPLEMENT: &str = "rest";

/// A wired session.
pub struct Deployment {
    /// The session holding every basket and query.
    pub cell: DataCell,
    /// Baskets the stream is appended to: one per query when separate.
    pub inputs: Vec<Arc<Basket>>,
    /// One query per range, in range order (the complement is not listed).
    pub queries: Vec<String>,
}

impl Deployment {
    /// Append `rows` to every input basket — for the separate strategy the
    /// N-fold copy the paper charges it with.
    pub fn ingest(&self, rows: &[Vec<Value>]) -> Result<()> {
        for b in &self.inputs {
            b.append_rows(rows)?;
        }
        Ok(())
    }

    /// The `v` values query `name` has delivered so far.
    pub fn output(&self, name: &str) -> Vec<i64> {
        let out = self.cell.query_output(name).expect("registered query");
        out.snapshot().columns[0].as_ints().unwrap().to_vec()
    }
}

/// Wire one query per range over a stream whose values lie in `domain`.
/// The cascade requires disjoint ranges (a tuple two windows qualify
/// would go to whichever consumer fires first).
pub fn deploy(
    wiring: Wiring,
    ranges: &[(i64, i64)],
    domain: RangeInclusive<i64>,
) -> Result<Deployment> {
    let cell = DataCell::builder()
        .plan_sharing(wiring == Wiring::Shared)
        .build();
    let mut queries = Vec::with_capacity(ranges.len());
    for (i, (lo, hi)) in ranges.iter().enumerate() {
        let q = format!("q{i}");
        let sql = if wiring == Wiring::Separate {
            cell.execute(&format!("create basket s{i} (v int)"))?;
            format!("select x.v from [select * from s{i}] as x where x.v between {lo} and {hi}")
        } else {
            if i == 0 {
                cell.execute("create basket s (v int)")?;
            }
            format!("select x.v from [select * from s where s.v between {lo} and {hi}] as x")
        };
        cell.execute(&format!("create continuous query {q} as {sql}"))?;
        queries.push(q);
    }
    if wiring == Wiring::Cascading {
        if let Some(holes) = uncovered(ranges, domain)? {
            cell.execute(&format!(
                "create continuous query {COMPLEMENT} as \
                 select x.v from [select * from s where {holes}] as x"
            ))?;
        }
    }
    let inputs = match wiring {
        Wiring::Separate => (0..ranges.len())
            .map(|i| cell.basket(&format!("s{i}")))
            .collect::<Result<_>>()?,
        _ => vec![cell.basket("s")?],
    };
    Ok(Deployment {
        cell,
        inputs,
        queries,
    })
}

/// The part of `domain` no range covers, as a predicate over `s.v`, or
/// `None` when the ranges cover it all. Rejects overlapping ranges.
fn uncovered(ranges: &[(i64, i64)], domain: RangeInclusive<i64>) -> Result<Option<String>> {
    let mut sorted = ranges.to_vec();
    sorted.sort_unstable();
    let (Some(&(first, _)), Some(&(_, last))) = (sorted.first(), sorted.last()) else {
        return Ok(None);
    };
    let mut holes = Vec::new();
    if first > *domain.start() {
        holes.push(format!("s.v < {first}"));
    }
    for w in sorted.windows(2) {
        let ((_, hi), (lo, _)) = (w[0], w[1]);
        if lo <= hi {
            return Err(DataCellError::Wiring(format!(
                "cascading needs disjoint predicate windows; {:?} overlaps {:?}",
                w[0], w[1]
            )));
        }
        if lo > hi + 1 {
            holes.push(format!("s.v between {} and {}", hi + 1, lo - 1));
        }
    }
    if last < *domain.end() {
        holes.push(format!("s.v > {last}"));
    }
    Ok((!holes.is_empty()).then(|| holes.join(" or ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANGES: [(i64, i64); 3] = [(0, 9), (10, 19), (20, 29)];

    fn rows(values: &[i64]) -> Vec<Vec<Value>> {
        values.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    fn outputs(d: &Deployment) -> Vec<Vec<i64>> {
        d.queries.iter().map(|q| d.output(q)).collect()
    }

    #[test]
    fn separate_strategy_copies_and_answers() {
        let d = deploy(Wiring::Separate, &RANGES, 0..=49).unwrap();
        assert_eq!(d.inputs.len(), 3, "one private basket per query");
        d.ingest(&rows(&[5, 15, 25, 40])).unwrap();
        // Each basket received a full copy.
        assert!(d.inputs.iter().all(|b| b.len() == 4));
        d.cell.run_until_quiescent(100);
        assert_eq!(outputs(&d), vec![vec![5], vec![15], vec![25]]);
        // Every private basket fully consumed (plain basket expressions).
        assert!(d.inputs.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn shared_strategy_no_copy_trims_after_all_readers() {
        let d = deploy(Wiring::Shared, &RANGES, 0..=49).unwrap();
        assert_eq!(d.inputs.len(), 1, "a single shared basket");
        assert_eq!(d.cell.metrics().shared_subplans, 3, "one head per range");
        d.ingest(&rows(&[5, 15, 25, 40])).unwrap();
        d.cell.run_until_quiescent(100);
        assert_eq!(outputs(&d), vec![vec![5], vec![15], vec![25]]);
        // Every head's cursor has passed: basket trimmed, 40 included.
        assert!(d.inputs[0].is_empty());
    }

    #[test]
    fn cascading_strategy_prunes_and_drains() {
        let d = deploy(Wiring::Cascading, &RANGES, 0..=99).unwrap();
        d.ingest(&rows(&[5, 15, 25, 40, 7])).unwrap();
        d.cell.run_until_quiescent(100);
        assert_eq!(outputs(&d), vec![vec![5, 7], vec![15], vec![25]]);
        // 40 matched no range; the complement took it.
        assert_eq!(d.output(COMPLEMENT), vec![40]);
        assert!(d.inputs[0].is_empty());
        // Nothing is re-armed by hand: a second batch flows through.
        d.ingest(&rows(&[12, 99])).unwrap();
        d.cell.run_until_quiescent(100);
        assert_eq!(d.output("q1"), vec![15, 12]);
        assert!(d.inputs[0].is_empty());
        // Covering ranges need no complement.
        let d = deploy(Wiring::Cascading, &RANGES, 0..=29).unwrap();
        assert!(d.cell.query_output(COMPLEMENT).is_err());
    }

    #[test]
    fn cascading_rejects_overlapping_ranges() {
        let err = deploy(Wiring::Cascading, &[(0, 10), (5, 15)], 0..=20)
            .err()
            .unwrap();
        assert!(err.to_string().contains("disjoint"), "{err}");
        assert_eq!(
            uncovered(&[(10, 19), (30, 39)], 0..=49).unwrap().as_deref(),
            Some("s.v < 10 or s.v between 20 and 29 or s.v > 39")
        );
    }

    #[test]
    fn unknown_column_rejected() {
        // The wiring is plain SQL: the binder names what is wrong.
        let cell = DataCell::new();
        cell.execute("create basket s (v int)").unwrap();
        let err = cell
            .execute(
                "create continuous query q as \
                 select x.v from [select * from s where s.nope between 0 and 1] as x",
            )
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn all_strategies_agree_on_results() {
        // The invariant behind exp3: same workload, same answers.
        let data: Vec<i64> = (0..100).map(|i| (i * 37) % 60 - 10).collect();
        let per_wiring: Vec<Vec<Vec<i64>>> = [Wiring::Separate, Wiring::Shared, Wiring::Cascading]
            .into_iter()
            .map(|w| {
                let d = deploy(w, &RANGES, -10..=49).unwrap();
                d.ingest(&rows(&data)).unwrap();
                d.cell.run_until_quiescent(1000);
                let mut outs = outputs(&d);
                outs.iter_mut().for_each(|o| o.sort_unstable());
                outs
            })
            .collect();
        assert_eq!(per_wiring[0], per_wiring[1]);
        assert_eq!(per_wiring[1], per_wiring[2]);
        // Sanity: the workload actually produces output.
        assert!(per_wiring[0].iter().map(Vec::len).sum::<usize>() > 0);
    }
}
