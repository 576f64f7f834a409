//! Observability substrate for the sliding-window reproduction.
//!
//! The paper's whole evaluation is *measured internals* — NBits widths,
//! packed-stream sizes, FIFO occupancy, cycles per pixel. This crate gives
//! every layer of the stack one way to surface those signals:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s with atomic backends, safe to share across threads;
//!   [`CounterTally`] / [`HistogramTally`] accumulate locally and publish
//!   into them in one flush.
//! * [`SpanProfiler`] / [`ProfileSpan`] — hierarchical spans with parent /
//!   child nesting on a thread-local stack, self-time vs child-time
//!   attribution, log₂-bucketed duration percentiles, and a flame-style
//!   self-time table ([`ProfileSnapshot::flame_table`]).
//! * [`TraceEvent`] / [`TraceRing`] — a bounded cycle-domain event sink
//!   (window shifts, IWT decompositions, pack/unpack, FIFO push/pop,
//!   threshold changes) with a JSON-lines writer.
//! * [`Report`] — a point-in-time snapshot exportable as a human-readable
//!   table, JSON (round-trippable via [`Report::from_json`]), or Prometheus
//!   text exposition.
//!
//! The entry point is [`TelemetryHandle`]: a cheaply clonable handle that is
//! either *enabled* (backed by a shared registry + trace ring) or *disabled*
//! (the default). Disabled handles hand out no-op instruments — a plain
//! `Option<Arc<_>>` check per record, no allocation, no locking — so the
//! 1-pixel-per-clock hot paths can be instrumented unconditionally.
//!
//! ```
//! use sw_telemetry::TelemetryHandle;
//!
//! let t = TelemetryHandle::new();
//! let pixels = t.counter("stage.demo.pixels");
//! pixels.add(64 * 64);
//! let occ = t.histogram("fifo.demo.occupancy_bits", &[64, 256, 1024]);
//! occ.observe(300);
//! let report = t.report();
//! assert_eq!(report.counters["stage.demo.pixels"], 64 * 64);
//! let parsed = sw_telemetry::Report::from_json(&report.to_json()).unwrap();
//! assert_eq!(parsed, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod trace;

pub use metrics::{Counter, CounterTally, Gauge, Histogram, HistogramTally, MetricsRegistry};
pub use profile::{PathProfile, ProfileSnapshot, ProfileSpan, SpanProfiler};
pub use report::{prometheus_series, HistogramSnapshot, Report};
pub use trace::{TraceEvent, TraceKind, TraceRing};

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Default capacity of the trace ring (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct TelemetryInner {
    registry: MetricsRegistry,
    trace: Mutex<TraceRing>,
    profiler: SpanProfiler,
}

/// A cheaply clonable telemetry context: either enabled (shared registry +
/// trace ring) or disabled (all instruments are no-ops).
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<TelemetryInner>>,
}

impl TelemetryHandle {
    /// An enabled handle with the default trace capacity.
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle whose trace ring holds `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(TelemetryInner {
                registry: MetricsRegistry::new(),
                trace: Mutex::new(TraceRing::new(capacity)),
                profiler: SpanProfiler::new(),
            })),
        }
    }

    /// A disabled handle: every instrument it hands out is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A named counter (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// A named gauge (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// A named histogram with inclusive upper bucket bounds (no-op when
    /// disabled). Bounds must be strictly increasing; an overflow bucket is
    /// added automatically.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(name, bounds),
            None => Histogram::noop(),
        }
    }

    /// Open a hierarchical profiling span (no-op when disabled). Nested
    /// calls on the same thread build slash-separated paths; see
    /// [`profile::SpanProfiler`].
    pub fn profile_span(&self, name: &str) -> ProfileSpan {
        match &self.inner {
            Some(i) => i.profiler.begin(name),
            None => ProfileSpan::noop(),
        }
    }

    /// Record an aggregate of `calls` already-timed invocations of `name`
    /// totalling `total_ns`, attributed under the currently open profiling
    /// span (no-op when disabled).
    pub fn profile_record(&self, name: &str, total_ns: u64, calls: u64) {
        if let Some(i) = &self.inner {
            i.profiler.record_aggregate(name, total_ns, calls);
        }
    }

    /// Snapshot the hierarchical profiler. Empty when disabled.
    pub fn profile_snapshot(&self) -> ProfileSnapshot {
        match &self.inner {
            Some(i) => i.profiler.snapshot(),
            None => ProfileSnapshot::default(),
        }
    }

    /// Render the profiler's flame-style self-time table.
    pub fn flame_table(&self) -> String {
        self.profile_snapshot().flame_table()
    }

    /// Profiling spans whose timing was lost (dropped cross-thread or out
    /// of order). Also surfaced in [`TelemetryHandle::report`] as the
    /// `telemetry.spans_abandoned` counter when non-zero.
    pub fn spans_abandoned(&self) -> u64 {
        match &self.inner {
            Some(i) => i.profiler.abandoned(),
            None => 0,
        }
    }

    /// Record one cycle-domain trace event (dropped silently when
    /// disabled; counted by the ring when it overwrites).
    #[inline]
    pub fn trace(&self, event: TraceEvent) {
        if let Some(i) = &self.inner {
            i.trace.lock().expect("trace lock").push(event);
        }
    }

    /// Move a batch of trace events into the ring, in order, under one
    /// lock; `events` is left empty (also when disabled).
    pub fn trace_batch(&self, events: &mut Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        if let Some(i) = &self.inner {
            let mut ring = i.trace.lock().expect("trace lock");
            for event in events.drain(..) {
                ring.push(event);
            }
        } else {
            events.clear();
        }
    }

    /// Snapshot all metrics into a [`Report`]. Empty when disabled. If any
    /// profiling span was abandoned (timing lost), the report carries a
    /// `telemetry.spans_abandoned` counter.
    pub fn report(&self) -> Report {
        match &self.inner {
            Some(i) => {
                let mut r = i.registry.snapshot();
                let abandoned = i.profiler.abandoned();
                if abandoned > 0 {
                    r.counters
                        .insert("telemetry.spans_abandoned".to_string(), abandoned);
                }
                r
            }
            None => Report::default(),
        }
    }

    /// Write the trace ring as JSON lines; returns the number of events
    /// written (0 when disabled).
    pub fn write_trace_jsonl<W: Write>(&self, w: &mut W) -> io::Result<usize> {
        match &self.inner {
            Some(i) => i.trace.lock().expect("trace lock").write_jsonl(w),
            None => Ok(0),
        }
    }

    /// Write the trace ring as a Chrome `trace_event` JSON document
    /// (loadable in `chrome://tracing` / Perfetto; 1 simulation cycle maps
    /// to 1 µs on the viewer timeline). Returns the number of trace-event
    /// records written (0 when disabled; nothing is written then).
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<usize> {
        match &self.inner {
            Some(i) => i.trace.lock().expect("trace lock").write_chrome_trace(w),
            None => Ok(0),
        }
    }

    /// Events overwritten because the trace ring was full.
    pub fn trace_dropped(&self) -> u64 {
        match &self.inner {
            Some(i) => i.trace.lock().expect("trace lock").dropped(),
            None => 0,
        }
    }

    /// Number of events currently held in the trace ring.
    pub fn trace_len(&self) -> usize {
        match &self.inner {
            Some(i) => i.trace.lock().expect("trace lock").len(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TelemetryHandle::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("a");
        c.add(5);
        assert_eq!(c.get(), 0);
        t.trace(TraceEvent::new(1, TraceKind::Pack, 2, 3));
        assert_eq!(t.trace_len(), 0);
        assert!(t.report().is_empty());
        drop(t.profile_span("s"));
        assert!(t.report().is_empty());
        assert!(t.profile_snapshot().paths.is_empty());
    }

    #[test]
    fn enabled_handle_shares_instruments_across_clones() {
        let t = TelemetryHandle::new();
        let c1 = t.counter("shared");
        let t2 = t.clone();
        let c2 = t2.counter("shared");
        c1.inc();
        c2.add(2);
        assert_eq!(t.report().counters["shared"], 3);
    }

    #[test]
    fn profile_spans_nest_through_the_handle() {
        let t = TelemetryHandle::new();
        {
            let _frame = t.profile_span("frame");
            let _stage = t.profile_span("stage0");
            t.profile_record("encode", 1_000, 4);
        }
        let snap = t.profile_snapshot();
        assert!(snap.paths.contains_key("frame"));
        assert!(snap.paths.contains_key("frame/stage0"));
        assert_eq!(snap.paths["frame/stage0/encode"].calls, 4);
        let table = t.flame_table();
        assert!(table.contains("frame/stage0/encode"));
    }

    #[test]
    fn abandoned_spans_surface_in_the_report() {
        let t = TelemetryHandle::new();
        t.counter("work.items").add(7);
        assert!(!t
            .report()
            .counters
            .contains_key("telemetry.spans_abandoned"));
        let a = t.profile_span("a");
        let b = t.profile_span("b");
        drop(a);
        drop(b); // displaced -> abandoned
        assert_eq!(t.spans_abandoned(), 1);
        let r = t.report();
        assert_eq!(r.counters["telemetry.spans_abandoned"], 1);
        assert_eq!(r.counters["work.items"], 7);
    }

    #[test]
    fn disabled_profiling_is_inert() {
        let t = TelemetryHandle::disabled();
        let s = t.profile_span("x");
        assert!(!s.is_active());
        drop(s);
        t.profile_record("y", 10, 1);
        assert!(t.profile_snapshot().is_empty());
        assert_eq!(t.spans_abandoned(), 0);
        let mut buf = Vec::new();
        assert_eq!(t.write_chrome_trace(&mut buf).unwrap(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn chrome_trace_through_the_handle_is_valid_json() {
        let t = TelemetryHandle::new();
        t.trace(TraceEvent::new(0, TraceKind::FrameStart, 64, 48));
        t.trace(TraceEvent::new(5, TraceKind::Stall, 3, 108));
        t.trace(TraceEvent::new(9, TraceKind::FrameEnd, 9, 0));
        let mut buf = Vec::new();
        let n = t.write_chrome_trace(&mut buf).unwrap();
        assert!(n >= 3);
        let doc = json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["traceEvents"].as_arr().unwrap().len(), n);
    }

    #[test]
    fn trace_batch_appends_in_order_and_drains() {
        let t = TelemetryHandle::with_trace_capacity(3);
        t.trace(TraceEvent::new(0, TraceKind::FrameStart, 8, 8));
        let mut batch: Vec<_> = (1..=3)
            .map(|c| TraceEvent::new(c, TraceKind::Pack, c, 0))
            .collect();
        t.trace_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(t.trace_len(), 3);
        assert_eq!(t.trace_dropped(), 1, "the ring overwrote FrameStart");
        let mut buf = Vec::new();
        t.write_trace_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().next().unwrap().contains("\"cycle\":1"));

        let d = TelemetryHandle::disabled();
        batch.push(TraceEvent::new(4, TraceKind::Pack, 4, 0));
        d.trace_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(d.trace_len(), 0);
    }

    #[test]
    fn trace_events_round_trip_through_jsonl() {
        let t = TelemetryHandle::new();
        t.trace(TraceEvent::new(7, TraceKind::FifoPush, 100, 0));
        t.trace(TraceEvent::new(8, TraceKind::FifoPop, 99, 0));
        let mut buf = Vec::new();
        let n = t.write_trace_jsonl(&mut buf).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"fifo_push\""));
        assert!(lines[0].contains("\"cycle\":7"));
    }
}
