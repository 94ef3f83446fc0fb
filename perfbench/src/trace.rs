//! The benchmark's own span recorder.
//!
//! A span is recorded around each public call the benchmark makes into the
//! program: name, start, end, parent span and op id. Spans stay in memory
//! and are written out once, when the benchmark ends. A disabled tracer
//! records nothing, so the untraced runs pay one branch per call.

use serde_json::{json, Value};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` when the tracer is off.
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    op: u64,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store shared by every thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a thread panicked while recording a span");
        spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.now_ns();
            self.spans.lock().expect("a thread panicked while recording a span")[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Every span as a JSON array of
    /// `{id, name, op, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> Value {
        let spans = self.spans.lock().expect("a thread panicked while recording a span");
        let spans = spans.iter().enumerate().map(|(i, s)| {
            json!({
                "id": i,
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            })
        });
        Value::Array(spans.collect())
    }
}
