//! In-memory spans for the traced run.
//!
//! A span has a name, start and end (nanoseconds since the run began),
//! the index of the span that caused it, and the id of the request it
//! belongs to. Spans are recorded only by the benchmark's own code:
//! around each client request and around each direct call into a
//! crate's public functions. They stay in memory and are written out
//! once, when the run ends.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (1-based) of the parent span in the trace; 0 for a root.
    pub parent: usize,
    /// Request id the span belongs to (0 when it is not a request).
    pub request: u64,
}

impl Span {
    pub fn millis(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A shared span sink. A disabled tracer records nothing, so the
/// end-to-end runs pay only a branch per call site.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Arc<Mutex<Vec<Span>>>>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            origin,
            spans: enabled.then(|| Arc::new(Mutex::new(Vec::new()))),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its index (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        request: u64,
    ) -> usize {
        let Some(spans) = &self.spans else { return 0 };
        let span = Span {
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            parent,
            request,
        };
        let mut spans = spans.lock().expect("span sink");
        spans.push(span);
        spans.len()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, 0);
        out
    }

    /// Opens a root span whose end is patched in by [`Tracer::close`].
    pub fn open(&self, name: &'static str) -> usize {
        let now = Instant::now();
        self.record(name, now, now, 0, 0)
    }

    pub fn close(&self, index: usize) {
        if let (Some(spans), true) = (&self.spans, index > 0) {
            let end = self.nanos(Instant::now());
            spans.lock().expect("span sink")[index - 1].end_ns = end;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span sink").clone())
            .unwrap_or_default()
    }
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::millis)
        .collect()
}

/// The spans as a JSON array (written to the run's trace file).
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.request
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", 0, || 7), 7);
        assert_eq!(t.open("root"), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_carry_parent_and_request() {
        let origin = Instant::now();
        let t = Tracer::new(true, origin);
        let root = t.open("root");
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        t.record("child", start, Instant::now(), root, 42);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request, 42);
        assert!(spans[1].millis() >= 2.0);
        assert!(spans[0].end_ns >= spans[1].end_ns, "root closes last");
        assert_eq!(durations_ms(&spans, "child").len(), 1);
        assert!(to_json(&spans).contains("\"name\":\"child\""));
    }
}
