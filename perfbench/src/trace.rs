//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's public
//! functions (nothing inside the program is instrumented). Each span carries a
//! name, start and end (nanoseconds since the tracer was created), the index of
//! the span that caused it, and the op id it belongs to. Spans stay in memory
//! and are written out once, when the run ends.
//!
//! A disabled tracer records nothing: `begin` returns a dummy id and `end` is a
//! no-op, so the untraced run pays for one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Built from a duration the program reported (`StageProvenance`), not
    /// timed by the benchmark: its position inside the parent is nominal.
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (an index into the tracer's span list).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id.0].end_ns = now;
        }
    }

    /// Times `f` as a span. The result passes through `black_box`, so a probe
    /// whose result is dropped is still computed.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Adds child spans of `parent` from durations the program reported, laid
    /// end to end from the parent's start.
    pub fn derived_children(
        &mut self,
        parent: SpanId,
        children: impl IntoIterator<Item = (&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        let (op, mut at) = (self.spans[parent.0].op, self.spans[parent.0].start_ns);
        for (name, nanos) in children {
            self.spans.push(Span {
                name,
                op,
                parent: Some(parent.0),
                start_ns: at,
                end_ns: at + nanos,
                derived: true,
            });
            at += nanos;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Self times (ms) of every span named `name`, in recording order.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        self.spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t as f64 / 1e6).collect()
    }

    /// Layer breakdown under the spans named `root`: the summed duration of the
    /// roots, and the summed self time of every span name in their subtrees
    /// (the root's own self time is the unattributed remainder).
    pub fn breakdown(&self, root: &str) -> (f64, BTreeMap<&'static str, f64>) {
        let selfs = self.self_times_ns();
        let mut under_root = vec![false; self.spans.len()];
        let mut total = 0u64;
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            under_root[i] = span.name == root || span.parent.is_some_and(|p| under_root[p]);
            if span.name == root {
                total += span.duration_ns();
            }
            if under_root[i] {
                *by_name.entry(span.name).or_default() += selfs[i] as f64 / 1e6;
            }
        }
        (total as f64 / 1e6, by_name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.derived
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("op", 0, None);
        let child = t.begin("child", 0, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        t.derived_children(child, [("a", 500_000)]);
        let (total, by_name) = t.breakdown("op");
        assert!(total >= 2.0);
        let sum: f64 = by_name.values().sum();
        assert!((sum - total).abs() < 1e-6, "self times must add up to the root span");
        assert!((by_name["a"] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 0, None);
        t.end(id);
        t.derived_children(id, [("a", 1)]);
        assert!(t.spans().is_empty());
    }
}
