//! In-memory spans recorded around calls into each layer, written out as
//! `trace-<workload>.json` when a traced run ends.
//!
//! A span covers one call (or one wait) on the benchmark's own thread: its
//! name, start, end, the span that encloses it, and the campaign or job it
//! belongs to. Children of one parent never overlap, so a parent's time is
//! exactly the sum of its children plus an explicit unattributed residual,
//! which the written trace carries on every parent.

use btt_core::serialize::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.series`.
    pub name: &'static str,
    /// Campaign or job the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span store. Spans are pushed in start order; a span's children are the
/// later spans naming it as parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        self.record(name, id, parent, Instant::now(), Instant::now())
    }

    /// Ends an open span now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, id, parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, start, Instant::now());
        out
    }

    /// Duration of span `span` in milliseconds.
    pub fn ms(&self, span: usize) -> f64 {
        self.spans[span].ms()
    }

    /// Total milliseconds of the direct children of `parent` named `name`.
    pub fn child_ms(&self, parent: usize, name: &str) -> f64 {
        self.children(parent).filter(|s| s.name == name).map(Span::ms).sum()
    }

    fn children(&self, parent: usize) -> impl Iterator<Item = &Span> {
        self.spans[parent + 1..].iter().filter(move |s| s.parent == Some(parent))
    }

    /// A parent's time not covered by its children (children never overlap).
    pub fn unattributed_ms(&self, parent: usize) -> f64 {
        self.ms(parent) - self.children(parent).map(Span::ms).sum::<f64>()
    }

    /// The trace document: every span with its parent index, and on each
    /// parent the unattributed residual that makes it add up.
    pub fn to_json(&self) -> Json {
        let has_children: Vec<bool> = {
            let mut v = vec![false; self.spans.len()];
            for p in self.spans.iter().filter_map(|s| s.parent) {
                v[p] = true;
            }
            v
        };
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut fields = vec![
                    ("span", Json::UInt(i as u64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("id", Json::UInt(s.id)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p as u64))),
                    ("start_ms", Json::Float(s.start_ns as f64 / 1e6)),
                    ("end_ms", Json::Float(s.end_ns as f64 / 1e6)),
                ];
                if has_children[i] {
                    fields.push(("unattributed_ms", Json::Float(self.unattributed_ms(i))));
                }
                Json::obj(fields)
            })
            .collect();
        Json::Array(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parents_equal_children_plus_residual() {
        let mut t = Tracer::default();
        let root = t.open("campaign", 7, None);
        t.time("measure", 7, Some(root), || std::thread::sleep(Duration::from_millis(3)));
        let analyze = t.open("analyze", 7, Some(root));
        t.time("pipeline.series", 7, Some(analyze), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.time("pipeline.series", 7, Some(analyze), || {
            std::thread::sleep(Duration::from_millis(1))
        });
        t.close(analyze);
        t.close(root);

        let children = t.ms(1) + t.ms(analyze);
        assert!((t.ms(root) - children - t.unattributed_ms(root)).abs() < 1e-9);
        assert!(t.unattributed_ms(root) >= 0.0);
        assert!(t.child_ms(analyze, "pipeline.series") >= 3.0);
        assert!(t.unattributed_ms(analyze) >= 0.0);

        let doc = t.to_json();
        let spans = doc.as_array().unwrap();
        assert_eq!(spans.len(), 5);
        assert!(spans[root].get("unattributed_ms").is_some());
        assert!(spans[1].get("unattributed_ms").is_none(), "leaves carry no residual");
        assert_eq!(spans[3].get("parent").and_then(Json::as_u64), Some(analyze as u64));
        assert_eq!(spans[3].get("id").and_then(Json::as_u64), Some(7));
    }
}
