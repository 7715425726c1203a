//! The harness's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each layer:
//! name, start, end, parent span and operation id. They stay in memory and
//! are written out once, when the run ends. The program under test is not
//! instrumented by this module; its own counters are read separately.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span, times in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (for example `compile`).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Operation (or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A single-threaded span recorder; threads each own one and
/// [`Recorder::merge`] them at the end.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before it ends.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Close every open span, as when an operation failed part-way.
    pub fn close_open(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let result = f();
        self.end(id);
        result
    }

    /// Append another recorder's spans (same epoch), re-basing parent links.
    pub fn merge(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "merged recorder has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every finished span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the time
    /// its direct children cover (children of one span never overlap, since
    /// a recorder belongs to one thread).
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9)
            .sum()
    }

    /// Total duration of the spans called `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// The spans as JSON lines: name, start, end, parent, op.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(Instant::now());
        let outer = r.begin("outer", 7);
        r.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.end(outer);
        let outer_s = r.total_seconds("outer");
        let inner_s = r.total_seconds("inner");
        assert!(inner_s >= 0.005);
        assert!((r.self_seconds("outer") - (outer_s - inner_s)).abs() < 1e-9);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].op, 7);

        let mut other = Recorder::new(Instant::now());
        other.span("outer", 8, || ());
        r.merge(other);
        assert_eq!(r.spans()[2].parent, None);
        assert_eq!(r.spans().len(), 3);
    }
}
