//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover. With the tracer disabled `time` is a plain call, so
//! the same replay can be run with spans on and off and the difference
//! reported as the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent: the span is a root.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based identifier, unique within the tracer.
    pub id: u32,
    /// Identifier of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The replay batch the span belongs to (spans of one batch share it).
    pub batch: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id ([`ROOT`] when disabled).
    pub fn begin(&mut self, name: &'static str, parent: u32, batch: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            batch,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: u32) {
        if id != ROOT {
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, batch);
        let r = f();
        self.end(id);
        r
    }

    /// Record a child of `parent` known only by its duration (a busy-time
    /// counter delta): it is placed at the parent's start.
    pub fn child_of_duration(&mut self, name: &'static str, parent: u32, dur_ns: u64) {
        if parent == ROOT {
            return;
        }
        let p = self.spans[parent as usize - 1];
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            batch: p.batch,
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + dur_ns,
        });
    }
}

/// Per span name: how many spans, their total duration and total self
/// time (duration minus the part covered by direct children, each child
/// clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut covered = vec![0u64; spans.len() + 1];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize - 1];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered[s.id as usize]);
    }
    out
}

/// Total self time of `name`, ns.
pub fn self_ns(table: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> u64 {
    table.get(name).map_or(0, |e| e.2)
}

/// Write the spans as one JSON array, one span per line.
pub fn write_json(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"batch\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id, s.parent, s.batch, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            batch: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, ROOT, "batch", 0, 1_000),
            span(2, 1, "run", 100, 700),
            span(3, 2, "step", 100, 450),
            span(4, 1, "encode", 700, 900),
        ];
        let t = self_times(&spans);
        assert_eq!(t["batch"], (1, 1_000, 200));
        assert_eq!(t["run"], (1, 600, 250));
        assert_eq!(t["step"], (1, 350, 350));
        assert_eq!(self_ns(&t, "encode"), 200);
        assert_eq!(self_ns(&t, "absent"), 0);
    }

    #[test]
    fn a_child_longer_than_its_parent_is_clipped() {
        // a busy-time delta rounded up past the span that contains it
        let spans = [span(1, ROOT, "run", 0, 100), span(2, 1, "step", 0, 130)];
        let t = self_times(&spans);
        assert_eq!(t["run"], (1, 100, 0));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_closure() {
        let mut t = Tracer::new(false);
        let id = t.begin("a", ROOT, 0);
        assert_eq!(id, ROOT);
        assert_eq!(t.time("b", id, 0, || 7), 7);
        t.child_of_duration("c", id, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_places_duration_children_at_the_parent_start() {
        let mut t = Tracer::new(true);
        let batch = t.begin("batch", ROOT, 3);
        let run = t.begin("run", batch, 3);
        t.end(run);
        t.child_of_duration("step", run, 40);
        t.end(batch);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].batch), (batch, 3));
        assert_eq!(s[2].start_ns, s[1].start_ns);
        assert_eq!(s[2].end_ns - s[2].start_ns, 40);
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
