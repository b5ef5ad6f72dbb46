//! The multi-query tuple engine: every tuple visits every standing query.

use crate::ops::{Operator, Tuple};

/// One standing query: a chain of operators plus a sink collecting results.
pub struct Query {
    /// Query name (reports).
    pub name: String,
    ops: Vec<Box<dyn Operator>>,
    /// Result tuples (drained by the caller or the threaded runtime).
    pub results: Vec<Tuple>,
    scratch_in: Vec<Tuple>,
    scratch_out: Vec<Tuple>,
}

impl Query {
    /// Build a query from an operator chain.
    pub fn new(name: impl Into<String>, ops: Vec<Box<dyn Operator>>) -> Self {
        Query {
            name: name.into(),
            ops,
            results: Vec::new(),
            scratch_in: Vec::new(),
            scratch_out: Vec::new(),
        }
    }

    /// Push one tuple through the whole chain.
    fn push(&mut self, tuple: &Tuple) {
        self.scratch_in.clear();
        self.scratch_in.push(tuple.clone());
        for op in &mut self.ops {
            self.scratch_out.clear();
            for t in &self.scratch_in {
                op.process(t, &mut self.scratch_out);
            }
            std::mem::swap(&mut self.scratch_in, &mut self.scratch_out);
            if self.scratch_in.is_empty() {
                return;
            }
        }
        self.results.append(&mut self.scratch_in);
    }

    /// Take the accumulated results.
    pub fn drain_results(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.results)
    }
}

/// Counters for the tuple engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tuples pushed in.
    pub tuples_in: u64,
    /// Result tuples produced across all queries.
    pub tuples_out: u64,
}

/// A set of standing queries fed one tuple at a time.
#[derive(Default)]
pub struct TupleEngine {
    queries: Vec<Query>,
    stats: EngineStats,
}

impl TupleEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a standing query.
    pub fn add_query(&mut self, query: Query) {
        self.queries.push(query);
    }

    /// Number of standing queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Push one tuple through every standing query (the architecture under
    /// test: per-tuple, per-query dispatch).
    pub fn push(&mut self, tuple: &Tuple) {
        self.stats.tuples_in += 1;
        for q in &mut self.queries {
            let before = q.results.len();
            q.push(tuple);
            self.stats.tuples_out += (q.results.len() - before) as u64;
        }
    }

    /// Borrow a query by position.
    pub fn query_mut(&mut self, i: usize) -> &mut Query {
        &mut self.queries[i]
    }

    /// Counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Projection, Selection};
    use datacell_bat::types::Value;

    fn t(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b)], 0)
    }

    #[test]
    fn chain_select_project() {
        let mut e = TupleEngine::new();
        e.add_query(Query::new(
            "q",
            vec![
                Box::new(Selection {
                    column: 0,
                    lo: 10,
                    hi: 20,
                }),
                Box::new(Projection { columns: vec![1] }),
            ],
        ));
        for (a, b) in [(5, 50), (15, 51), (25, 52), (20, 53)] {
            e.push(&t(a, b));
        }
        let results = e.query_mut(0).drain_results();
        let got: Vec<i64> = results
            .iter()
            .map(|x| x.values[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![51, 53]);
        assert_eq!(e.stats().tuples_in, 4);
        assert_eq!(e.stats().tuples_out, 2);
    }

    #[test]
    fn every_query_sees_every_tuple() {
        let mut e = TupleEngine::new();
        for i in 0..3 {
            e.add_query(Query::new(
                format!("q{i}"),
                vec![Box::new(Selection {
                    column: 0,
                    lo: (i as i64) * 10,
                    hi: (i as i64) * 10 + 9,
                })],
            ));
        }
        for v in [5, 15, 25, 8] {
            e.push(&t(v, 0));
        }
        assert_eq!(e.query_mut(0).drain_results().len(), 2);
        assert_eq!(e.query_mut(1).drain_results().len(), 1);
        assert_eq!(e.query_mut(2).drain_results().len(), 1);
    }

    #[test]
    fn drain_results_resets() {
        let mut e = TupleEngine::new();
        e.add_query(Query::new(
            "q",
            vec![Box::new(Selection {
                column: 0,
                lo: i64::MIN + 1,
                hi: i64::MAX,
            })],
        ));
        e.push(&t(1, 1));
        assert_eq!(e.query_mut(0).drain_results().len(), 1);
        assert_eq!(e.query_mut(0).drain_results().len(), 0);
    }
}
