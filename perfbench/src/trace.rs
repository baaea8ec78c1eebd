//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public entry point: name, start, end, parent span and the
//! request (program, CLI op or daemon request) it belongs to. Spans
//! stay in memory and are written out once, at the end of the run.
//! With recording off, [`Tracer::span`] only calls the closure, so the
//! same replay code serves as the untraced reference that the tracing
//! overhead is measured against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// Layer-qualified name, e.g. `core.harden`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
    /// Start, in seconds since the tracer was created.
    pub start: f64,
    /// End, in seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// The recorder.
pub struct Tracer {
    /// Whether spans are recorded.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request; later spans carry its identifier.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request: self.request,
            start: self.epoch.elapsed().as_secs_f64(),
            end: 0.0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        // An empty float sum is -0.0; adding 0.0 makes it 0.0.
        self.durations(name).iter().sum::<f64>() + 0.0
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += s.dur() - child[i];
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `index parent request name start end`, then the self-time table.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("# index\tparent\trequest\tname\tstart_s\tend_s\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}",
                s.request, s.name, s.start, s.end
            )
            .ok();
        }
        text.push_str("# self time by span name (s)\n");
        for (name, t) in self.self_times() {
            writeln!(text, "# {name}\t{t:.9}").ok();
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_request();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 1);
        let selfs = t.self_times();
        assert!(selfs["outer"] < spans[1].dur());
        assert!((selfs["inner"] - spans[1].dur()).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
