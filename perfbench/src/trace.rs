//! In-memory span recording around calls into the program's public
//! functions.
//!
//! Spans are recorded from the benchmark's own code only: each wraps one
//! public call (a layer boundary) and carries its name, start, end, the
//! span that caused it and the id of the obligation or request it serves.
//! A disabled tracer runs the same closures without recording, so a
//! traced and an untraced pass execute the same calls and their wall-time
//! difference is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `explore.check_fun`.
    pub name: &'static str,
    /// Obligation or request id shared by every span of one unit of work.
    pub id: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for work item `id`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, id: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: id.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Durations of the spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the part its direct children cover (children run inside
    /// their parent and one after another, so their durations add up).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Measured cost of recording one span, in nanoseconds: the mean of
    /// `n` empty spans on a fresh tracer.
    pub fn span_cost_ns(n: usize) -> f64 {
        let mut tr = Tracer::new(true);
        let start = Instant::now();
        for _ in 0..n {
            tr.span("cost", "probe", |_| ());
        }
        start.elapsed().as_nanos() as f64 / n.max(1) as f64
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", "r1", |tr| {
            tr.span("inner", "r1", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = tr.self_ms();
        assert!(own["inner"] >= 5.0);
        assert!(own["outer"] < own["inner"]);
        assert_eq!(tr.spans()[1].parent, Some(0));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", "r", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
