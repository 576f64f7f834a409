//! Benchmark-side spans: recorded around calls into each layer, kept in
//! memory, and written once at exit as Chrome `trace_event` JSON plus a
//! per-layer self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (one clock for
/// every thread, so spans from all threads line up).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call. `name` is `layer/what`; the layer is what the
/// self-time table groups by.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer/what`.
    pub name: &'static str,
    /// Start, [`now_ns`] clock.
    pub start: u64,
    /// End, [`now_ns`] clock.
    pub end: u64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// The job (or frame) this span belongs to.
    pub job: u64,
    /// Recording thread (connection) number.
    pub tid: u32,
}

/// An in-memory span log; one per recording thread, merged at exit.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a span and return its index (a parent handle).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        job: u64,
        tid: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            job,
            tid,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with a provisional end.
    pub fn set_end(&mut self, span: usize, end: u64) {
        self.spans[span].end = end;
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part of that
    /// interval its children cover (children may overlap: a daemon-side
    /// span can run while the client's write call has not yet returned).
    /// Returns the table and the number of spans with a child reaching
    /// outside them; such a child is clipped, and counted here.
    pub fn self_times(&self) -> (BTreeMap<&'static str, LayerTime>, u64) {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut outside = 0;
        for (s, mut k) in self.spans.iter().zip(kids) {
            k.sort_unstable();
            if k.iter().any(|&(a, b)| a < s.start || b > s.end) {
                outside += 1;
            }
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in k {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            covered += run.map_or(0, |(a, b)| b - a);
            let layer = s.name.split('/').next().unwrap_or(s.name);
            let e = table.entry(layer).or_default();
            e.self_ns += s.end.saturating_sub(s.start) - covered;
            e.spans += 1;
        }
        (table, outside)
    }

    /// The self-time table as text, one layer per line.
    pub fn self_time_table(&self) -> String {
        let (table, outside) = self.self_times();
        let total: u64 = table.values().map(|t| t.self_ns).sum();
        let mut out = String::from("layer            spans      self_ms   share\n");
        for (layer, t) in &table {
            let _ = writeln!(
                out,
                "{layer:<14} {:>7} {:>12.3} {:>6.1}%",
                t.spans,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / total.max(1) as f64
            );
        }
        let _ = writeln!(out, "spans with a child reaching outside them: {outside}");
        out
    }

    /// Chrome `trace_event` JSON (complete events), at most `limit`
    /// spans, with the run header as metadata.
    pub fn chrome_json(&self, header: &str, limit: usize) -> String {
        let mut out = String::with_capacity(self.spans.len().min(limit) * 120 + 256);
        let _ = write!(out, "{{\"otherData\":{header},\"traceEvents\":[");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"job\":{},\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('/').next().unwrap_or(s.name),
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                s.tid,
                s.job
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// One row of the self-time table.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Spans of this layer.
    pub spans: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_flags_overlap() {
        let mut t = Trace::default();
        let root = t.push("job/e2e", 0, 100, None, 1, 0);
        t.push("api/encode", 0, 10, Some(root), 1, 0);
        let wait = t.push("wire/wait", 10, 90, Some(root), 1, 0);
        t.push("exec/run", 20, 80, Some(wait), 1, 0);
        let (table, negative) = t.self_times();
        assert_eq!(negative, 0);
        assert_eq!(table["job"].self_ns, 10);
        assert_eq!(table["api"].self_ns, 10);
        assert_eq!(table["wire"].self_ns, 20);
        assert_eq!(table["exec"].self_ns, 60);
        // Overlapping children cover their union once.
        let mut lap = Trace::default();
        let p = lap.push("reactor/roundtrip", 0, 100, None, 3, 0);
        lap.push("wire/write", 10, 50, Some(p), 3, 0);
        lap.push("exec/run", 40, 60, Some(p), 3, 0);
        let (table, outside) = lap.self_times();
        assert_eq!(outside, 0);
        assert_eq!(table["reactor"].self_ns, 50);
        // A child reaching outside its parent: clipped and counted.
        let mut bad = Trace::default();
        let p = bad.push("wire/wait", 0, 10, None, 2, 0);
        bad.push("exec/run", 0, 15, Some(p), 2, 0);
        let (table, outside) = bad.self_times();
        assert_eq!(outside, 1);
        assert_eq!(table["wire"].self_ns, 0);
    }

    #[test]
    fn merge_rebases_parents_and_json_is_bounded() {
        let mut a = Trace::default();
        a.push("job/e2e", 0, 10, None, 1, 0);
        let mut b = Trace::default();
        let r = b.push("job/e2e", 0, 10, None, 2, 1);
        b.push("api/encode", 0, 5, Some(r), 2, 1);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let json = a.chrome_json("{}", 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.starts_with("{\"otherData\":{}"));
    }
}
