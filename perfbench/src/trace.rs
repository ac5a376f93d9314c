//! The benchmark's own span recorder: layer spans are opened and
//! closed around calls into the program's public functions, kept in
//! memory, and written out as JSON Lines when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval: `name` ran from `start` to `end` (offsets from
/// the tracer's origin), caused by the span at index `parent`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// An in-memory span list. Span ids are indices into it.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(SpanRec { name, parent, start: now, end: now });
        self.spans.len() - 1
    }

    /// Closes span `id` at the current instant.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Total milliseconds spent in spans called `name` (0 when none ran).
    pub fn ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .fold(0.0, |total, ms| total + ms)
    }

    /// One JSON object per span, in open order; times in milliseconds.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ms\":{:?},\"end_ms\":{:?}}}",
                s.name,
                s.start.as_secs_f64() * 1e3,
                s.end.as_secs_f64() * 1e3
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
