//! In-memory spans recorded by the benchmark's own code around each
//! call into a layer of the program.
//!
//! A span has a name (the layer it times), a start, an end, the span
//! that caused it and the operation (job) it belongs to. A layer's self
//! time is its span's duration minus the part its child spans cover.
//! Spans are written out at the end of a traced run in the Chrome
//! trace-event format that `marioh-obs` emits (`"ph": "X"` events,
//! microsecond timestamps), with the parent and operation id in `args`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Name of the root span of one operation (a job or reconstruction).
pub const JOB: &str = "job";

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder for one thread. When disabled every call is a no-op,
/// so untraced code paths pay nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.epoch.elapsed();
        let id = self.push(name, op, now, now, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Closes the span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured interval as a child of `parent`
    /// (intervals the benchmark derives from a report or from what a
    /// client observed, rather than wraps directly).
    pub fn add(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let s = start.saturating_duration_since(self.epoch);
        let e = end.saturating_duration_since(self.epoch).max(s);
        self.push(name, op, s, e, parent)
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, summed over every span, in ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += ms(s.dur().saturating_sub(c));
        }
        out
    }

    /// Total duration of the root job spans, in ms.
    pub fn job_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == JOB && s.parent.is_none())
            .map(|s| ms(s.dur()))
            .sum()
    }

    /// Chrome trace-event JSON of every span, one lane (`tid`) per
    /// operation so that overlapping served jobs stay apart.
    pub fn chrome_json(&self) -> String {
        let pid = std::process::id();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start.as_micros(),
                s.dur().as_micros(),
                s.op,
                s.op
            ));
        }
        out.push_str("]}");
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let root = t.add(JOB, 0, epoch, epoch + Duration::from_millis(10), None);
        t.add(
            "engine",
            0,
            epoch + Duration::from_millis(1),
            epoch + Duration::from_millis(9),
            Some(root),
        );
        let own = t.self_ms();
        assert!((own["job"] - 2.0).abs() < 1e-9);
        assert!((own["engine"] - 8.0).abs() < 1e-9);
        assert!((t.job_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("engine", 1);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
