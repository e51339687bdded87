//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started, and the request it served. Spans stay in memory until the run
//! ends. With tracing off, `enter` and `exit` record nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span served (0 when it served none).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            self.stack.retain(|&s| s != id);
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part its children cover, summed over the spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"parent\":{parent},\"name\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                crate::json::string(&s.name),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 0);
        let inner = t.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.exit(inner);
        t.exit(outer);
        let s = t.self_seconds();
        assert!(s["inner"] >= 0.02);
        assert!(s["outer"] < s["inner"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", 0, || ());
        assert_eq!(t.span_count(), 0);
    }
}
