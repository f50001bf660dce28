//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call into a layer with [`Tracer::time`] (or an
//! explicit [`Tracer::open`]/[`Tracer::close`] pair for spans with
//! children). Spans stay in memory; at the end of the run they are written
//! out as JSON lines and reduced to per-layer self time. A disabled tracer
//! records nothing, so the untraced end-to-end runs go through the same
//! code at the cost of one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.instrument`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records spans, timed from the tracer's creation.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one. Returns its index
    /// (meaningless when the tracer is off).
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Opens a span with no parent that may overlap others (a request in
    /// flight beside another); close it with [`Tracer::close_root`].
    pub fn open_root(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: None,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open_root`].
    pub fn close_root(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Self time of every span, grouped by name, in nanoseconds: a span's
    /// duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            out.entry(s.name)
                .or_default()
                .push(s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c));
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sum of `v`, in milliseconds.
pub fn total_ms(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / 1e6
}

/// Median of `v`, in milliseconds.
pub fn median_ms(v: &[u64]) -> f64 {
    crate::stats::median(&v.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let st = t.self_times();
        let inner = st["inner"][0];
        let outer_self = st["outer"][0];
        let outer_total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert!(inner >= 2_000_000);
        assert_eq!(outer_self + inner, outer_total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.time("x", || 7);
        assert_eq!(x, 7);
        assert!(t.self_times().is_empty());
    }
}
