//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions; no crate is instrumented. A span has a name whose
//! first dot-separated component is its layer (`prob.alg1` → `prob`), a
//! start and an end (nanoseconds since the run's epoch), the span it ran
//! inside, and a request id shared by every span of one unit of work (a
//! fit round, or one wire request). Spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder. When disabled, [`Tracer::span`] only runs
/// its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span timed by the caller (for work split across loop
    /// iterations, such as a pipelined wire request), under the currently
    /// open span. Returns its index so children can name it as parent.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) -> usize {
        self.record_under(name, req, start, end, self.open.last().copied())
    }

    /// [`Tracer::record`] with an explicit parent.
    pub fn record_under(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.filter(|&p| p != usize::MAX),
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per layer, the self time of each request (in ms) over the spans
    /// `keep` selects.
    pub fn self_ms_by_layer(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            if keep(s) {
                *per.entry(s.layer()).or_default().entry(s.req).or_insert(0) += own;
            }
        }
        per.into_iter()
            .map(|(layer, reqs)| (layer, reqs.values().map(|&ns| ns as f64 / 1e6).collect()))
            .collect()
    }

    /// Per request id, the summed duration of the spans named `name`.
    pub fn per_request_ns(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let base = epoch + std::time::Duration::from_millis(1);
        let ms = |n| base + std::time::Duration::from_millis(n);
        let root = t.record("bench.round", 7, ms(0), ms(10));
        t.record_under("prob.alg1", 7, ms(1), ms(5), Some(root));
        t.record_under("linalg.solve", 7, ms(5), ms(8), Some(root));
        let by_layer = t.self_ms_by_layer(|_| true);
        assert_eq!(by_layer["bench"], vec![3.0]);
        assert_eq!(by_layer["prob"], vec![4.0]);
        assert_eq!(by_layer["linalg"], vec![3.0]);
        assert_eq!(t.per_request_ns("prob.alg1")[&7], 4_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("prob.alg1", 1, |_| 5);
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
