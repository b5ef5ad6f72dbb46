//! The Petri-net view of a DataCell configuration (§2.4).
//!
//! "Baskets are equivalent to Petri-net token place-holders while
//! receptors, emitters and factories represent Petri-net transitions."
//! [`DataCell::petri_net`](crate::DataCell::petri_net) draws this graph
//! from the live configuration: its writers as receptors, its subscribers
//! as emitters, and every transition the scheduler runs, each reporting
//! its own places ([`Transition::places`]). The net flags places no
//! transition feeds and renders Graphviz for documentation and debugging.
//!
//! §2.4 also has "auxiliary input/output baskets" regulate when a
//! transition runs. This engine has none: two exclusive consumers of one
//! basket never fire at once because the scheduler locks the basket's
//! name as a conflict key for each firing ([`Transition::conflict_keys`]),
//! and which one fires first is not fixed — a §2.5 cascade splits a
//! stream with disjoint predicate windows, which makes the order moot.

use std::collections::HashSet;
use std::sync::Arc;

use crate::basket::Basket;
use crate::scheduler::Transition;

/// The places one scheduled transition touches, as
/// [`Transition::places`] reports them.
#[derive(Debug, Clone, Default)]
pub struct Places {
    /// Baskets the transition reads, exclusively or through a cursor.
    pub inputs: Vec<Arc<Basket>>,
    /// Baskets the transition appends to.
    pub outputs: Vec<Arc<Basket>>,
}

/// Kinds of Petri-net transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Stream input adapter (a live writer).
    Receptor,
    /// A scheduled transition: a continuous-query (fragment) executor or
    /// a window evaluator.
    Factory,
    /// Result delivery adapter.
    Emitter,
}

/// A directed bipartite Petri-net graph.
#[derive(Debug, Default)]
pub struct PetriNet {
    /// Place names (baskets).
    pub places: Vec<String>,
    /// Transition (name, kind) pairs.
    pub transitions: Vec<(String, TransitionKind)>,
    /// Edges place → transition (inputs).
    pub inputs: Vec<(String, String)>,
    /// Edges transition → place (outputs).
    pub outputs: Vec<(String, String)>,
}

impl PetriNet {
    /// Empty net.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_place(&mut self, name: &str) {
        if !self.places.iter().any(|p| p == name) {
            self.places.push(name.to_string());
        }
    }

    /// Add a receptor transition writing into `target`.
    pub fn add_receptor(&mut self, name: &str, target: &str) {
        self.transitions
            .push((name.to_string(), TransitionKind::Receptor));
        self.add_place(target);
        self.outputs.push((name.to_string(), target.to_string()));
    }

    /// Add an emitter transition draining `source`.
    pub fn add_emitter(&mut self, name: &str, source: &str) {
        self.transitions
            .push((name.to_string(), TransitionKind::Emitter));
        self.add_place(source);
        self.inputs.push((source.to_string(), name.to_string()));
    }

    /// Add a scheduled transition with the places it reports.
    pub fn add_transition(&mut self, transition: &dyn Transition) {
        let name = transition.name().to_string();
        let places = transition.places();
        self.transitions
            .push((name.clone(), TransitionKind::Factory));
        for b in places.inputs {
            self.add_place(b.name());
            self.inputs.push((b.name().to_string(), name.clone()));
        }
        for b in places.outputs {
            self.add_place(b.name());
            self.outputs.push((name.clone(), b.name().to_string()));
        }
    }

    /// Well-formedness warnings: one per place that some transition reads
    /// and none produces (dead input). Places fed only from outside —
    /// direct appends, no open writer — are fine, so this is
    /// informational.
    pub fn validate(&self) -> Vec<String> {
        let produced: HashSet<&String> = self.outputs.iter().map(|(_, p)| p).collect();
        let dead: HashSet<&String> = self
            .inputs
            .iter()
            .map(|(p, _)| p)
            .filter(|p| !produced.contains(p))
            .collect();
        dead.into_iter()
            .map(|place| format!("place {place} has no producing transition (fed externally?)"))
            .collect()
    }

    /// Graphviz rendering: places as circles, transitions as boxes.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph datacell {\n  rankdir=LR;\n");
        for p in &self.places {
            out.push_str(&format!("  \"{p}\" [shape=circle];\n"));
        }
        for (t, kind) in &self.transitions {
            let color = match kind {
                TransitionKind::Receptor => "lightblue",
                TransitionKind::Factory => "lightgray",
                TransitionKind::Emitter => "lightgreen",
            };
            out.push_str(&format!(
                "  \"{t}\" [shape=box, style=filled, fillcolor={color}];\n"
            ));
        }
        for (p, t) in &self.inputs {
            out.push_str(&format!("  \"{p}\" -> \"{t}\";\n"));
        }
        for (t, p) in &self.outputs {
            out.push_str(&format!("  \"{t}\" -> \"{p}\";\n"));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StreamCatalog;
    use crate::factory::{Factory, FactoryOutput};
    use datacell_bat::types::DataType;
    use datacell_sql::Schema;
    use std::sync::Arc;

    fn catalog() -> StreamCatalog {
        let mut cat = StreamCatalog::new();
        cat.create_basket("b1", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        cat.create_basket("b2", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        cat
    }

    fn factory(cat: &StreamCatalog, name: &str) -> Factory {
        Factory::compile(
            name,
            "select s.a from [select * from b1] as s",
            cat,
            FactoryOutput::Basket(cat.basket("b2").unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn figure_one_topology() {
        // R -> B1 -> Q -> B2 -> E, the paper's Figure 1.
        let cat = catalog();
        let q = Arc::new(factory(&cat, "q"));
        let mut net = PetriNet::new();
        net.add_receptor("R", "b1");
        net.add_transition(&*q);
        net.add_emitter("E", "b2");
        assert_eq!(net.places.len(), 2);
        assert_eq!(net.transitions.len(), 3);
        assert!(net.validate().is_empty(), "{:?}", net.validate());
        let dot = net.to_dot();
        assert!(dot.contains("\"R\" -> \"b1\""));
        assert!(dot.contains("\"b1\" -> \"q\""));
        assert!(dot.contains("\"q\" -> \"b2\""));
        assert!(dot.contains("\"b2\" -> \"E\""));
    }

    #[test]
    fn dead_input_place_is_informational() {
        let cat = catalog();
        let q = Arc::new(factory(&cat, "q"));
        let mut net = PetriNet::new();
        net.add_transition(&*q); // no receptor feeds b1
        let warnings = net.validate();
        assert!(warnings.iter().any(|w| w.contains("no producing")));
    }
}
