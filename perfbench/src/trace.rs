//! In-memory span recorder for the traced pass.
//!
//! The benchmark records spans from its own code, around each public
//! layer call it makes; the library itself is not instrumented. A span
//! has a name, a start, an end and a parent; every span of one replayed
//! op carries that op's id. Spans stay in memory until the run ends and
//! are then written out in one file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::json_str;

/// One closed span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. With `on == false` every call only runs its closure,
/// which is how the untraced side of the overhead comparison runs the
/// same code path.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new op: a root span named `name` with a fresh op id.
    pub fn op<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        debug_assert!(self.stack.is_empty(), "ops do not nest");
        self.next_op += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.next_op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Per op that has spans named `name`: their summed duration (ms).
    pub fn samples(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// Self time (ms) by span name: each span's duration minus the time
    /// its children cover, summed over the run.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ms) {
            *out.entry(s.name.clone()).or_insert(0.0) += s.ms() - c;
        }
        out
    }

    /// The run's spans and self times as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{seed},\"spans\":[",
            json_str(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                if i == 0 { "" } else { "," },
                json_str(&s.name),
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out.push_str("],\"self_ms\":{");
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{t}",
                if i == 0 { "" } else { "," },
                json_str(name)
            );
        }
        out.push_str("}}\n");
        out
    }
}
