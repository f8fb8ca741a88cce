//! Spans around the benchmark's own calls into each crate. Kept in memory,
//! written when the run ends (Chrome trace-event JSON: load it in
//! `chrome://tracing` or Perfetto). Spans *inside* the crates are a later
//! change; until then a layer's self time is its span minus the spans the
//! benchmark opened within it.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one request share an identifier (the stream id); 0 for
    /// work that belongs to no request.
    pub request: u64,
}

struct State {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State { enabled, spans: Vec::new(), open: Vec::new() }),
        }
    }

    /// Turns recording on or off; returns the previous setting. Used by the
    /// traced run to time the same pass with and without spans.
    pub fn set_enabled(&self, enabled: bool) -> bool {
        std::mem::replace(&mut self.state.borrow_mut().enabled, enabled)
    }

    /// Runs `work` inside a span and returns its result with the elapsed
    /// seconds. With recording off this is two clock reads and a branch.
    pub fn timed<T>(&self, name: &'static str, request: u64, work: impl FnOnce() -> T) -> (T, f64) {
        let slot = {
            let mut state = self.state.borrow_mut();
            if state.enabled {
                let index = state.spans.len();
                let parent = state.open.last().copied();
                state.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, request });
                state.open.push(index);
                Some(index)
            } else {
                None
            }
        };
        let start = Instant::now();
        let out = work();
        let end = Instant::now();
        if let Some(index) = slot {
            let mut state = self.state.borrow_mut();
            state.open.pop();
            let span = &mut state.spans[index];
            span.start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    pub fn span_count(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Total and self time per span name, in seconds: self time is the
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        self_times(&self.state.borrow().spans)
    }

    /// The trace as a Chrome trace-event document.
    pub fn to_json(&self, workload: &str) -> Value {
        let state = self.state.borrow();
        let events = state
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                Value::obj([
                    ("name", Value::str(span.name)),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Num(index as f64)),
                            ("parent", span.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                            ("request", Value::Num(span.request as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        let layers = self_times(&state.spans)
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Value::obj([
                        ("spans", Value::Num(t.spans as f64)),
                        ("total_s", Value::Num(t.total_s)),
                        ("self_s", Value::Num(t.self_s)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Value::obj([
            ("displayTimeUnit", Value::str("ms")),
            ("workload", Value::str(workload)),
            ("selfTime", Value::obj(layers)),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: usize,
    pub total_s: f64,
    pub self_s: f64,
}

fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let total = span.end_ns - span.start_ns;
        let entry = out.entry(span.name).or_default();
        entry.spans += 1;
        entry.total_s += total as f64 / 1e9;
        entry.self_s += total.saturating_sub(children) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let spans = vec![
            Span { name: "pass", start_ns: 0, end_ns: 100, parent: None, request: 0 },
            Span { name: "call", start_ns: 10, end_ns: 40, parent: Some(0), request: 1 },
            Span { name: "call", start_ns: 50, end_ns: 90, parent: Some(0), request: 2 },
            Span { name: "inner", start_ns: 60, end_ns: 70, parent: Some(2), request: 2 },
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].spans, 1);
        assert!((t["pass"].self_s - 30e-9).abs() < 1e-15);
        assert!((t["call"].total_s - 70e-9).abs() < 1e-15);
        assert!((t["call"].self_s - 60e-9).abs() < 1e-15);
        assert!((t["inner"].self_s - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_records_only_when_enabled() {
        let tracer = Tracer::new(true);
        let ((), outer) = tracer.timed("outer", 0, || {
            let (v, _) = tracer.timed("inner", 7, || 42);
            assert_eq!(v, 42);
        });
        assert!(outer >= 0.0);
        assert!(tracer.set_enabled(false));
        tracer.timed("ignored", 0, || ());
        assert_eq!(tracer.span_count(), 2);
        let doc = tracer.to_json("w");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events[1].get("args").unwrap().get("parent"), Some(&Value::Num(0.0)));
        assert_eq!(events[1].get("args").unwrap().get("request"), Some(&Value::Num(7.0)));
        assert!(doc.get("selfTime").unwrap().get("outer").is_some());
    }
}
