//! Cost-based multi-query plan sharing (§4, "exploiting the similarities
//! between queries").
//!
//! Registered continuous queries frequently share a common prefix: the
//! same consuming scan of the same basket with the same predicate window.
//! Without sharing, N such queries each compile a private head that
//! re-evaluates the same selection over the same tuples N times. With
//! sharing on ([`crate::DataCellBuilder::plan_sharing`] or `SET PLAN
//! SHARING ON`), the session keeps a registry of *shared nodes*: one head
//! factory per distinct prefix, materializing the surviving tuples once
//! per firing into a shared intermediate basket; each query's tail reads
//! that basket through its own reader cursor (the existing shared-reader
//! discipline — a tuple is trimmed once every subscribed tail passed it).
//!
//! Lookup is fingerprint-prefiltered and equality-confirmed: a candidate
//! matches only when [`LogicalPlan::fingerprint`] *and* `==` agree on the
//! optimized prefix and the source basket name matches. Detach is
//! reference-counted on `DROP CONTINUOUS QUERY`: dropping the last
//! subscriber retires the head factory and the intermediate basket. Each
//! factory owns its reader, so removing it from the scheduler releases
//! the reader; the registry keeps names only.

use std::collections::HashSet;

use datacell_sql::logical::LogicalPlan;

/// One shared subplan: a head factory materializing a common prefix into
/// an intermediate basket, plus the queries subscribed to it.
#[derive(Debug)]
pub(crate) struct SharedNode {
    /// Fingerprint of `prefix` — the cheap lookup prefilter.
    pub fingerprint: u64,
    /// The optimized shared prefix (a single consuming scan with its
    /// predicate window). Equality on this is authoritative for matching.
    pub prefix: LogicalPlan,
    /// The consumed source basket.
    pub source: String,
    /// Name of the head factory registered with the scheduler.
    pub head_name: String,
    /// Name of the shared intermediate basket the head fills.
    pub mid_name: String,
    /// Names of the queries whose tails read the intermediate basket.
    pub subscribers: HashSet<String>,
}

/// Session-wide plan-sharing registry.
#[derive(Debug, Default)]
pub(crate) struct PlanShare {
    /// Active shared nodes (few per session; linear scan is fine).
    pub nodes: Vec<SharedNode>,
    /// Monotone counter naming shared heads/intermediates (`mqo{seq}_*`).
    pub seq: u64,
}

impl PlanShare {
    /// Find the shared node for `prefix` over `source`, if one exists.
    /// Fingerprint prefilter, `==` confirmation.
    pub fn find_mut(
        &mut self,
        fingerprint: u64,
        prefix: &LogicalPlan,
        source: &str,
    ) -> Option<&mut SharedNode> {
        self.nodes
            .iter_mut()
            .find(|n| n.fingerprint == fingerprint && n.source == source && n.prefix == *prefix)
    }

    /// Remove `query` from whichever node it subscribes to. Returns the
    /// intermediate's name plus, when this was the last subscriber, the
    /// whole retired node for teardown.
    pub fn detach(&mut self, query: &str) -> Option<(String, Option<SharedNode>)> {
        let idx = self
            .nodes
            .iter()
            .position(|n| n.subscribers.contains(query))?;
        let node = &mut self.nodes[idx];
        node.subscribers.remove(query);
        let mid = node.mid_name.clone();
        let retired = if node.subscribers.is_empty() {
            Some(self.nodes.swap_remove(idx))
        } else {
            None
        };
        Some((mid, retired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_sql::Schema;

    fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            schema: Schema::new(vec![("a".into(), datacell_bat::types::DataType::Int)]),
            consume: true,
            predicate: None,
            projection: None,
            window: None,
        }
    }

    fn node(source: &str, query: &str) -> SharedNode {
        let prefix = scan(source);
        SharedNode {
            fingerprint: prefix.fingerprint(),
            prefix,
            source: source.into(),
            head_name: format!("mqo1_head_{source}"),
            mid_name: format!("mqo1_mid_{source}"),
            subscribers: HashSet::from([query.to_string()]),
        }
    }

    #[test]
    fn find_requires_fingerprint_source_and_equality() {
        let mut ps = PlanShare::default();
        ps.nodes.push(node("s", "q1"));
        let p = scan("s");
        assert!(ps.find_mut(p.fingerprint(), &p, "s").is_some());
        assert!(ps.find_mut(p.fingerprint(), &p, "other").is_none());
        let q = scan("t");
        assert!(ps.find_mut(q.fingerprint(), &q, "s").is_none());
    }

    #[test]
    fn detach_refcounts_to_retirement() {
        let mut ps = PlanShare::default();
        let mut n = node("s", "q1");
        n.subscribers.insert("q2".into());
        ps.nodes.push(n);
        let (mid, retired) = ps.detach("q1").unwrap();
        assert_eq!(mid, "mqo1_mid_s");
        assert!(retired.is_none(), "q2 still subscribed");
        let (_, retired) = ps.detach("q2").unwrap();
        assert!(retired.is_some(), "last drop retires the node");
        assert!(ps.nodes.is_empty());
        assert!(ps.detach("q3").is_none());
    }
}
