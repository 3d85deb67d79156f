//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, the public function called, start and end
//! (nanoseconds since the run began), the span that was open when it
//! started, and the run id. Spans stay in memory and are written out once,
//! when the run ends. A layer's self time is the total duration of its
//! spans minus the time covered by their direct child spans.
//!
//! Spans are recorded from the benchmark's own thread only, so the stack
//! of open spans is a plain `RefCell`.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub call: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items the call processed (rows, states, points, bytes…), as the
    /// caller counts them.
    pub items: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals over a run's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub items: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Span recorder. Disabled tracers run the closure and record nothing.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            // rtlint: allow(D003) -- span timestamps are the output; nothing else reads them
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer` named after the called function.
    pub fn span<T>(&self, layer: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_items(layer, call, 1, f)
    }

    /// [`Tracer::span`] with an item count.
    pub fn span_items<T>(
        &self,
        layer: &'static str,
        call: &'static str,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                layer,
                call,
                start_ns: self.now_ns(),
                end_ns: 0,
                items,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Totals per layer, in layer-name order.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        layer_totals(&self.spans.borrow())
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.borrow();
        Json::obj(vec![
            ("run_id", Json::Int(self.run_id as i64)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("id", Json::Int(s.id as i64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                                ),
                                ("run", Json::Int(self.run_id as i64)),
                                ("layer", Json::Str(s.layer.to_string())),
                                ("call", Json::Str(s.call.to_string())),
                                ("start_ns", Json::Int(s.start_ns as i64)),
                                ("end_ns", Json::Int(s.end_ns as i64)),
                                ("items", Json::Int(s.items as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Calls, items, total and self time per layer.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.items += s.items;
        t.total_s += s.duration_ns() as f64 * 1e-9;
        t.self_s += s.duration_ns().saturating_sub(child_ns[s.id]) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            call: "f",
            start_ns: start,
            end_ns: end,
            items: 2,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "engine", 0, 1000),
            span(1, Some(0), "graph", 100, 400),
            span(2, Some(1), "relation", 150, 250),
            span(3, Some(0), "graph", 500, 600),
        ];
        let t = layer_totals(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(t["engine"].self_s), 600);
        assert_eq!(ns(t["graph"].total_s), 400);
        assert_eq!(ns(t["graph"].self_s), 300);
        assert_eq!(ns(t["relation"].self_s), 100);
        assert_eq!(t["graph"].calls, 2);
        assert_eq!(t["graph"].items, 4);
    }

    #[test]
    fn nested_spans_record_their_parent_and_disabled_records_nothing() {
        let tracer = Tracer::new(true, 7);
        let v = tracer.span("outer", "a", || tracer.span("inner", "b", || 41) + 1);
        assert_eq!(v, 42);
        let spans = tracer.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].layer, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false, 7);
        assert_eq!(off.span("outer", "a", || 3), 3);
        assert!(off.layers().is_empty());
    }
}
