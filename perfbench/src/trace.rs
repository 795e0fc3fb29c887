//! In-memory span tracer for the traced replay.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API: name, start, end, parent span and the op they
//! belong to. They stay in memory until the run ends, so recording
//! costs two clock reads and a push per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `tdc.measure_batch`.
    pub name: &'static str,
    /// Id of the op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds.
    pub start_s: f64,
    /// End, in seconds.
    pub end_s: f64,
}

impl Span {
    /// Wall time the span covers.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed span durations.
    pub total_s: f64,
    /// Summed self time: duration minus the time child spans cover.
    pub self_s: f64,
}

/// Records nested spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span, consumed by [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags every span entered from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start_s = self.now_s();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        Open(index)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let end_s = self.now_s();
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_s = end_s;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let result = f();
        self.exit(span);
        result
    }

    /// Per-name call counts, total and self time over closed spans.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_s[parent] += span.duration_s();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_s) {
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_s += span.duration_s();
            entry.self_s += span.duration_s() - children;
        }
        totals
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}\n",
                span.op, span.name, span.start_s, span.end_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut t = Tracer::new();
        t.set_op(3);
        let root = t.enter("op");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.time("child", || ());
        t.exit(root);
        let totals = t.totals();
        let op = totals["op"];
        let child = totals["child"];
        assert_eq!((op.calls, child.calls), (1, 2));
        assert!(child.total_s >= 0.005);
        assert!((op.self_s - (op.total_s - child.total_s)).abs() < 1e-12);
        assert_eq!(child.self_s, child.total_s, "leaves own all their time");
        assert!(t.spans.iter().all(|s| s.op == 3));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.jsonl().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_nest() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }
}
