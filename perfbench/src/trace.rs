//! The benchmark's own span recorder.
//!
//! Spans are kept in memory while a traced pass runs and written out once
//! it ends. Each span records a name, start and end (ns since the tracer
//! was created), its parent span and the request it served (0 = none).
//! With tracing off, `begin`/`end` return immediately and read no clock.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span handle: index + 1 into the span list; 0 is "no span".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer::with_capacity(on, 0)
    }

    /// A tracer with room for `spans` spans, so a long traced pass does
    /// not reallocate (and copy) its span list while it measures.
    pub fn with_capacity(on: bool, spans: usize) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { spans } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns 0 (and records nothing) when tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() as SpanId
    }

    /// Closes a span opened by [`Tracer::begin`] and returns its length
    /// in µs; a no-op returning 0 for id 0.
    pub fn end(&mut self, id: SpanId) -> f64 {
        if id == 0 {
            return 0.0;
        }
        let now = self.now_ns();
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 * 1e-3
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, 0);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
            .collect()
    }

    /// Self time in µs of every span: its duration minus the part of it
    /// covered by its children.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-3
            })
            .collect()
    }

    /// Summed self time in µs of the spans called `name`.
    pub fn total_self_us(&self, name: &str) -> f64 {
        self.self_times_us()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// Writes every span as one CSV row: `id,name,start_ns,end_ns,parent,request`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,request")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "p",
                start_ns: 0,
                end_ns: 100,
                parent: 0,
                request: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: 1,
                request: 0,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: 1,
                request: 0,
            },
            Span {
                name: "c",
                start_ns: 90,
                end_ns: 120,
                parent: 1,
                request: 0,
            },
        ];
        // Children cover [10, 60) and [90, 100): 60 ns of 100.
        assert_eq!(t.total_self_us("p"), 0.040);
        assert_eq!(t.total_self_us("a"), 0.030);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, 1);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.spans.is_empty());
    }
}
