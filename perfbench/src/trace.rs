//! Spans the benchmark records around its own calls into the program's
//! layers. They stay in memory and are written out once, at exit; a
//! disabled tracer records nothing.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent` indexes the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `world.build`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Guard<'_> {
    /// This span's index, to hand to child spans (`None` when tracing is
    /// off).
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end_ns = end;
            }
        }
    }
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn span(&self, name: &str, parent: Option<usize>) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let start = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: start,
            end_ns: start,
        });
        Guard {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Milliseconds of the first span named `name` (0 if none).
    pub fn ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time summed per layer (the span name up to its first `.`), ms.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_ns(spans)) {
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
        *out.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

/// The spans and per-layer self times as one JSON document.
pub fn to_json(spans: &[Span]) -> Value {
    let rows: Vec<Value> = spans
        .iter()
        .zip(self_ns(spans))
        .map(|(s, self_ns)| {
            json!({
                "name": s.name.as_str(),
                "parent": s.parent,
                "start_ms": s.start_ns as f64 / 1e6,
                "dur_ms": (s.end_ns - s.start_ns) as f64 / 1e6,
                "self_ms": self_ns as f64 / 1e6,
            })
        })
        .collect();
    json!({ "spans": rows, "layer_self_ms": crate::object(&layer_self_ms(spans)) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("run", None, 0, 100),
            // Two overlapping children cover [10, 50): 40 ns, not 50.
            span("world.build", Some(0), 10, 40),
            span("campaign.probe", Some(0), 20, 50),
            // A grandchild is its parent's business, not the root's.
            span("netsim.drain", Some(2), 25, 45),
            // A child overrunning its parent is clipped to the parent.
            span("detect.run", Some(0), 90, 130),
        ];
        assert_eq!(self_ns(&spans), vec![50, 30, 10, 20, 40]);
        let layers = layer_self_ms(&spans);
        assert_eq!(layers["run"], 50e-6);
        assert_eq!(layers["campaign"], 10e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("world.build", None);
            assert_eq!(g.id(), None);
        }
        assert!(t.spans().is_empty());
        assert_eq!(t.ms("world.build"), 0.0);
    }

    #[test]
    fn enabled_tracer_nests_and_closes_spans() {
        let t = Tracer::new(true);
        {
            let root = t.span("run", None);
            let _child = t.span("world.build", root.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
