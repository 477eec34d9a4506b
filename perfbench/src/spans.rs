//! In-memory span recorder for the traced run.
//!
//! Every span records its name, start, end, parent span and the request or
//! batch id it belongs to. Spans stay in memory while the run measures and
//! are written out once at the end.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `"plancache.probe"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id (serving) or batch index (engine).
    pub id: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; indices returned by [`Tracer::open`] name them. A
/// tracer made by [`Tracer::off`] records nothing, so the untraced run
/// shares the traced run's code at the cost of one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn on() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            enabled: true,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// Opens a span now and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: usize) {
        if let Some(s) = self.spans.get_mut(idx) {
            s.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Durations of the spans called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed self time of the spans called `name`, in milliseconds: each
    /// span's duration minus the time its child spans cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_nanos = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_nanos[p] += s.nanos();
            }
        }
        self.spans
            .iter()
            .zip(&child_nanos)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.nanos().saturating_sub(c) as f64 / 1e6)
            .sum()
    }

    /// Writes the spans to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                id: 0,
            },
            Span {
                name: "inner",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                id: 0,
            },
            Span {
                name: "inner",
                start_ns: 5_000_000,
                end_ns: 6_000_000,
                parent: Some(0),
                id: 1,
            },
        ];
        assert_eq!(t.self_ms("outer"), 6.0);
        assert_eq!(t.self_ms("inner"), 4.0);
        assert_eq!(t.durations_ms("inner"), vec![3.0, 1.0]);
        assert_eq!(t.count("inner"), 2);
    }

    #[test]
    fn open_close_nests() {
        let mut t = Tracer::on();
        let a = t.open("a", None, 7);
        let b = t.open("b", Some(a), 7);
        t.close(b);
        t.close(a);
        assert!(t.spans[a].end_ns >= t.spans[b].end_ns);
        assert_eq!(t.spans[b].parent, Some(a));

        let mut off = Tracer::off();
        let s = off.open("a", None, 0);
        off.close(s);
        assert!(off.spans.is_empty());
    }
}
