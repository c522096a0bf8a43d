//! Spans recorded from outside the program, around the calls into each
//! layer (spans inside the crates are a later change).
//!
//! A span has a name (`<layer>.<call>`), a start, an end and the span that
//! was open when it began. They stay in memory for the whole run and are
//! written to `benchmark/out/trace-<workload>.json` when it ends. With
//! tracing off, `span` is just the call.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Count, total and self time of all spans with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotal {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` (child of the innermost open
    /// span).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per-name totals. A span's self time is its duration minus the part
    /// its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            // A span still open has no end yet and counts as empty.
            let dur = s.end_ns.saturating_sub(s.start_ns);
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals().remove(name).unwrap_or_default()
    }

    /// The trace document: every span plus the per-name roll-up. All spans
    /// of one run share `run_id`.
    pub fn to_json(&self, run_id: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::count(id as u64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::count(s.start_ns)),
                    ("end_ns", Json::count(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::count(p as u64))),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::count(t.count)),
                        ("total_ns", Json::count(t.total_ns)),
                        ("self_ns", Json::count(t.self_ns)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("run_id", Json::str(run_id)),
            ("totals", Json::Obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("inner", |_| ());
        });
        let outer = t.total("outer");
        let inner = t.total("inner");
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.totals().is_empty());
    }
}
