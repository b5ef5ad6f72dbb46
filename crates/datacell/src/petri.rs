//! The Petri-net view of a DataCell configuration (§2.4).
//!
//! "Baskets are equivalent to Petri-net token place-holders while
//! receptors, emitters and factories represent Petri-net transitions."
//! [`DataCell::petri_net`](crate::DataCell::petri_net) draws this graph
//! from the live configuration: its writers as receptors, its subscribers
//! as emitters, and every transition the scheduler runs, each reporting
//! its own places ([`Transition::places`]). The net checks well-formedness
//! (every transition needs inputs and outputs; two exclusive consumers on
//! one basket must be serialized by control tokens) and renders Graphviz
//! for documentation and debugging.

use std::collections::{HashMap, HashSet};

use crate::scheduler::Transition;

/// The places one scheduled transition touches, as
/// [`Transition::places`] reports them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Places {
    /// Data input baskets, each with whether the transition consumes it
    /// exclusively (a cursor read is not exclusive).
    pub inputs: Vec<(String, bool)>,
    /// Control-token baskets the transition waits on.
    pub control_in: Vec<String>,
    /// Baskets the transition appends to: results and control tokens.
    pub outputs: Vec<String>,
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
    /// Exclusive consumers per place (for the wiring check).
    exclusive_consumers: HashMap<String, Vec<String>>,
    /// Control edges: consumer name → token basket names it waits on.
    control_waits: HashMap<String, HashSet<String>>,
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
        for (b, exclusive) in places.inputs {
            self.add_place(&b);
            self.inputs.push((b.clone(), name.clone()));
            if exclusive {
                self.exclusive_consumers
                    .entry(b)
                    .or_default()
                    .push(name.clone());
            }
        }
        for b in places.control_in {
            self.add_place(&b);
            self.inputs.push((b.clone(), name.clone()));
            self.control_waits
                .entry(name.clone())
                .or_default()
                .insert(b);
        }
        for b in places.outputs {
            self.add_place(&b);
            self.outputs.push((name.clone(), b));
        }
    }

    /// Well-formedness warnings:
    ///
    /// * a factory place with *no* producer (dead input),
    /// * a place with ≥2 exclusive consumers that are not serialized by
    ///   control tokens — the §2.4 rule that "auxiliary input/output
    ///   baskets are used to regulate when a transition runs".
    ///
    /// The second warning is about *determinism*, not safety. At runtime
    /// the scheduler's firing locks treat every exclusive input (and
    /// control input) as a conflict key, so two transitions sharing an
    /// exclusively-consumed place never *step concurrently* — even under
    /// a multi-worker pool, racing consumers cannot tear each other's
    /// claims. What the locks do **not** decide is *which* consumer runs
    /// first, so an un-serialized pair still splits the stream
    /// nondeterministically; serialize with control tokens when the split
    /// matters.
    pub fn validate(&self) -> Vec<String> {
        let mut warnings = Vec::new();
        let produced: HashSet<&String> = self.outputs.iter().map(|(_, p)| p).collect();
        for (place, _) in self
            .inputs
            .iter()
            .filter(|(p, _)| !produced.contains(p))
            .map(|(p, t)| (p, t))
            .collect::<HashSet<_>>()
        {
            // Places fed only from outside (direct appends, no open
            // writer) are fine; flag them as informational.
            warnings.push(format!(
                "place {place} has no producing transition (fed externally?)"
            ));
        }
        for (place, consumers) in &self.exclusive_consumers {
            if consumers.len() > 1 {
                // Serialized iff every consumer waits on at least one
                // control token (cascade chains).
                let all_gated = consumers
                    .iter()
                    .all(|c| self.control_waits.get(c).is_some_and(|s| !s.is_empty()));
                if !all_gated {
                    warnings.push(format!(
                        "place {place} has {} un-serialized exclusive consumers: {:?}",
                        consumers.len(),
                        consumers
                    ));
                }
            }
        }
        warnings
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
    fn unserialized_exclusive_consumers_flagged() {
        let cat = catalog();
        let q1 = Arc::new(factory(&cat, "q1"));
        let q2 = Arc::new(factory(&cat, "q2"));
        let mut net = PetriNet::new();
        net.add_receptor("R", "b1");
        net.add_transition(&*q1);
        net.add_transition(&*q2);
        let warnings = net.validate();
        assert!(
            warnings.iter().any(|w| w.contains("exclusive consumers")),
            "{warnings:?}"
        );
    }

    #[test]
    fn token_serialized_cascade_passes_validation() {
        let mut cat = catalog();
        let tok = cat
            .create_basket("tok", Schema::new(vec![("t".into(), DataType::Int)]))
            .unwrap();
        let mut f1 = factory(&cat, "q1");
        f1.add_control_out(Arc::clone(&tok));
        f1.add_control_in(
            cat.create_basket("tok0", Schema::new(vec![("t".into(), DataType::Int)]))
                .unwrap(),
        );
        let mut f2 = factory(&cat, "q2");
        f2.add_control_in(tok);
        let q1 = Arc::new(f1);
        let q2 = Arc::new(f2);
        let mut net = PetriNet::new();
        net.add_receptor("R", "b1");
        net.add_transition(&*q1);
        net.add_transition(&*q2);
        let warnings = net.validate();
        assert!(
            !warnings.iter().any(|w| w.contains("exclusive consumers")),
            "{warnings:?}"
        );
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
