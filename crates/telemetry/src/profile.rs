//! Hierarchical span profiling with self-time attribution.
//!
//! This is the crate's one timing mechanism. It records *which stage
//! inside which stage* the time went to: a [`ProfileSpan`] pushed while
//! another is open
//! becomes its child — nesting is tracked per thread on a thread-local span
//! stack, so the hot path never takes a lock to discover its parent. Each
//! completed span records into a per-*path* statistics table ("pipeline",
//! "pipeline/stage0", "frame/encode", …) keeping:
//!
//! * call count, total wall nanoseconds, child nanoseconds (and therefore
//!   **self time** = total − children),
//! * a log₂-bucketed duration histogram from which p50/p90/p99 are read.
//!
//! By construction the self-times of a span's whole subtree sum to exactly
//! the root's total time, which is what makes the flame table trustworthy.
//!
//! Spans that cannot be attributed — dropped on a different thread than they
//! started on, or dropped after their stack frame was displaced by an
//! out-of-order drop — lose their timing; that loss is *counted* under the
//! profiler's `abandoned` counter (surfaced as the
//! `telemetry.spans_abandoned` metric) instead of vanishing silently.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log₂ duration buckets; bucket `i` holds values `v` with
/// `2^(i-1) < v <= 2^i` (bucket 0 holds 0 and 1 ns).
const LOG2_BUCKETS: usize = 64;

/// Bucket index for a nanosecond duration (see [`LOG2_BUCKETS`]).
fn bucket_index(ns: u64) -> usize {
    match ns.max(1).checked_next_power_of_two() {
        Some(p) => (p.trailing_zeros() as usize).min(LOG2_BUCKETS - 1),
        None => LOG2_BUCKETS - 1,
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug, Clone)]
struct PathStats {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    max_ns: u64,
    buckets: [u64; LOG2_BUCKETS],
}

impl PathStats {
    fn new() -> Self {
        Self {
            calls: 0,
            total_ns: 0,
            child_ns: 0,
            max_ns: 0,
            buckets: [0; LOG2_BUCKETS],
        }
    }

    fn observe(&mut self, value_ns: u64, times: u64) {
        self.buckets[bucket_index(value_ns)] += times;
        self.max_ns = self.max_ns.max(value_ns);
    }
}

#[derive(Debug)]
struct ProfilerCore {
    paths: Mutex<BTreeMap<String, PathStats>>,
    abandoned: AtomicU64,
    serial: AtomicU64,
}

/// The shared profiler behind a [`crate::TelemetryHandle`]: a table of
/// per-path span statistics plus the thread-local nesting machinery.
#[derive(Debug, Clone)]
pub struct SpanProfiler {
    core: Arc<ProfilerCore>,
}

struct Frame {
    core: Arc<ProfilerCore>,
    serial: u64,
    path: String,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self {
            core: Arc::new(ProfilerCore {
                paths: Mutex::new(BTreeMap::new()),
                abandoned: AtomicU64::new(0),
                serial: AtomicU64::new(0),
            }),
        }
    }

    /// Open a span named `name`. Its path is the enclosing open span's path
    /// (on this thread, for this profiler) plus `/name`, or just `name` at
    /// top level. The span records when the returned guard drops.
    pub fn begin(&self, name: &str) -> ProfileSpan {
        let serial = self.core.serial.fetch_add(1, Ordering::Relaxed) + 1;
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack
                .iter()
                .rev()
                .find(|f| Arc::ptr_eq(&f.core, &self.core))
                .map(|f| format!("{}/{name}", f.path))
                .unwrap_or_else(|| name.to_string());
            stack.push(Frame {
                core: self.core.clone(),
                serial,
                path,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        ProfileSpan {
            active: Some((self.clone(), serial)),
        }
    }

    /// Record an aggregate of `calls` already-timed child invocations of
    /// `name` totalling `total_ns`, attributed under the current open span.
    ///
    /// This is the cheap path for per-pixel/per-group work: accumulate
    /// locally, flush once, instead of one guard per invocation.
    pub fn record_aggregate(&self, name: &str, total_ns: u64, calls: u64) {
        if calls == 0 {
            return;
        }
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack
                .iter_mut()
                .rev()
                .find(|f| Arc::ptr_eq(&f.core, &self.core));
            match parent {
                Some(f) => {
                    f.child_ns = f.child_ns.saturating_add(total_ns);
                    format!("{}/{name}", f.path)
                }
                None => name.to_string(),
            }
        });
        let mut paths = self.core.paths.lock().expect("profiler lock");
        let st = paths.entry(path).or_insert_with(PathStats::new);
        st.calls += calls;
        st.total_ns = st.total_ns.saturating_add(total_ns);
        st.observe(total_ns / calls, calls);
    }

    fn end(&self, serial: u64) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(idx) = stack
                .iter()
                .rposition(|f| f.serial == serial && Arc::ptr_eq(&f.core, &self.core))
            else {
                // Cross-thread drop, or this frame was displaced by an
                // out-of-order drop below it: the timing is unattributable.
                self.core.abandoned.fetch_add(1, Ordering::Relaxed);
                return;
            };
            // Frames this profiler opened *after* the one being closed are
            // displaced; their own guards will count themselves abandoned.
            let mut i = stack.len();
            while i > idx + 1 {
                i -= 1;
                if Arc::ptr_eq(&stack[i].core, &self.core) {
                    stack.remove(i);
                }
            }
            let frame = stack.remove(idx);
            let total = elapsed_ns(frame.start);
            {
                let mut paths = self.core.paths.lock().expect("profiler lock");
                let st = paths.entry(frame.path).or_insert_with(PathStats::new);
                st.calls += 1;
                st.total_ns = st.total_ns.saturating_add(total);
                st.child_ns = st.child_ns.saturating_add(frame.child_ns);
                st.observe(total, 1);
            }
            if let Some(parent) = stack
                .iter_mut()
                .rev()
                .find(|f| Arc::ptr_eq(&f.core, &self.core))
            {
                parent.child_ns = parent.child_ns.saturating_add(total);
            }
        });
    }

    /// Spans whose timing was lost (dropped cross-thread or out of order).
    pub fn abandoned(&self) -> u64 {
        self.core.abandoned.load(Ordering::Relaxed)
    }

    /// Snapshot every path's statistics.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let paths = self.core.paths.lock().expect("profiler lock");
        ProfileSnapshot {
            paths: paths
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        PathProfile {
                            calls: v.calls,
                            total_ns: v.total_ns,
                            child_ns: v.child_ns,
                            max_ns: v.max_ns,
                            buckets: v.buckets.to_vec(),
                        },
                    )
                })
                .collect(),
            abandoned: self.abandoned(),
        }
    }
}

/// Guard for one open hierarchical span; records on drop. Obtain from
/// [`crate::TelemetryHandle::profile_span`] or [`SpanProfiler::begin`].
#[derive(Debug)]
pub struct ProfileSpan {
    active: Option<(SpanProfiler, u64)>,
}

impl ProfileSpan {
    /// A span that records nothing (disabled telemetry).
    pub fn noop() -> Self {
        Self { active: None }
    }

    /// Whether this span will record on drop.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for ProfileSpan {
    fn drop(&mut self) {
        if let Some((profiler, serial)) = self.active.take() {
            profiler.end(serial);
        }
    }
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathProfile {
    /// Completed invocations recorded under this path.
    pub calls: u64,
    /// Total wall nanoseconds across all invocations.
    pub total_ns: u64,
    /// Nanoseconds attributed to child spans / aggregates.
    pub child_ns: u64,
    /// Longest single observation in nanoseconds.
    pub max_ns: u64,
    buckets: Vec<u64>,
}

impl PathProfile {
    /// Time spent in this path itself, excluding children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Approximate `q`-quantile (0 < q <= 1) of per-call duration, read from
    /// the log₂ bucket bounds (upper bound of the bucket holding the
    /// quantile, clamped to the observed maximum).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count: u64 = self.buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let bound = 1u64.checked_shl(i as u32).unwrap_or(u64::MAX);
                return bound.min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }

    /// Median per-call duration (log₂-bucket resolution).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th percentile per-call duration (log₂-bucket resolution).
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th percentile per-call duration (log₂-bucket resolution).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// Point-in-time copy of a [`SpanProfiler`]'s per-path statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Statistics keyed by span path ("pipeline/stage0", "frame/encode", …).
    /// `BTreeMap` order places every parent directly before its children.
    pub paths: BTreeMap<String, PathProfile>,
    /// Spans whose timing was lost (see [`SpanProfiler::abandoned`]).
    pub abandoned: u64,
}

impl ProfileSnapshot {
    /// Whether any path was recorded.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Sum of self-times across all paths — equals the sum of root spans'
    /// totals when nothing was abandoned.
    pub fn total_self_ns(&self) -> u64 {
        self.paths.values().map(PathProfile::self_ns).sum()
    }

    /// Render a flame-style table: one row per path, indented by depth,
    /// with calls, total, self time, self share and per-call percentiles.
    pub fn flame_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>9} {:>9} {:>6} {:>9} {:>9} {:>9}",
            "path", "calls", "total", "self", "self%", "p50", "p90", "p99"
        );
        let grand = self.total_self_ns().max(1);
        for (path, p) in &self.paths {
            let depth = path.matches('/').count();
            let label = format!("{}{}", "  ".repeat(depth), path);
            let pct = p.self_ns() as f64 / grand as f64 * 100.0;
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>9} {:>9} {:>5.1}% {:>9} {:>9} {:>9}",
                label,
                p.calls,
                fmt_ns(p.total_ns),
                fmt_ns(p.self_ns()),
                pct,
                fmt_ns(p.p50_ns()),
                fmt_ns(p.p90_ns()),
                fmt_ns(p.p99_ns()),
            );
        }
        if self.abandoned > 0 {
            let _ = writeln!(out, "({} span(s) abandoned — timing lost)", self.abandoned);
        }
        out
    }
}

/// Format nanoseconds with an adaptive unit (`ns`, `us`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nesting_builds_paths_and_attributes_self_time() {
        let p = SpanProfiler::new();
        {
            let _root = p.begin("root");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _child = p.begin("child");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snap = p.snapshot();
        assert_eq!(
            snap.paths.keys().collect::<Vec<_>>(),
            vec!["root", "root/child"]
        );
        let root = &snap.paths["root"];
        let child = &snap.paths["root/child"];
        assert_eq!(root.calls, 1);
        assert_eq!(child.calls, 1);
        assert_eq!(root.child_ns, child.total_ns);
        // Self-times over the subtree sum exactly to the root total.
        assert_eq!(root.self_ns() + child.self_ns(), root.total_ns);
        assert!(root.self_ns() >= 1_000_000, "slept 2ms outside child");
    }

    #[test]
    fn sibling_spans_share_a_path() {
        let p = SpanProfiler::new();
        let _root = p.begin("r");
        for _ in 0..3 {
            let _s = p.begin("s");
        }
        drop(_root);
        let snap = p.snapshot();
        assert_eq!(snap.paths["r/s"].calls, 3);
        assert_eq!(snap.paths["r"].calls, 1);
    }

    #[test]
    fn aggregate_records_nest_under_open_span() {
        let p = SpanProfiler::new();
        {
            let _root = p.begin("frame");
            p.record_aggregate("encode", 5_000, 10);
            p.record_aggregate("encode", 3_000, 6);
        }
        let snap = p.snapshot();
        let enc = &snap.paths["frame/encode"];
        assert_eq!(enc.calls, 16);
        assert_eq!(enc.total_ns, 8_000);
        assert_eq!(snap.paths["frame"].child_ns, 8_000);
        // Zero-call aggregates are ignored.
        p.record_aggregate("noop", 0, 0);
        assert!(!p.snapshot().paths.contains_key("noop"));
    }

    #[test]
    fn out_of_order_drop_counts_abandoned() {
        let p = SpanProfiler::new();
        let a = p.begin("a");
        let b = p.begin("b");
        drop(a); // displaces b's frame
        assert_eq!(p.abandoned(), 0);
        drop(b); // frame already gone -> abandoned
        assert_eq!(p.abandoned(), 1);
        let snap = p.snapshot();
        assert_eq!(snap.paths["a"].calls, 1);
        assert_eq!(snap.abandoned, 1);
    }

    #[test]
    fn cross_thread_drop_counts_abandoned() {
        let p = SpanProfiler::new();
        let span = p.begin("here");
        let p2 = p.clone();
        std::thread::spawn(move || drop(span)).join().unwrap();
        assert_eq!(p2.abandoned(), 1);
        // The displaced frame stays on this thread's stack until another
        // same-profiler span closes around it; a fresh root span adopting it
        // as parent is acceptable (path "here/next"), but closing it must
        // not panic.
        let _ = p2.begin("next");
    }

    #[test]
    fn quantiles_come_from_log_buckets() {
        let mut stats = PathStats::new();
        for v in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 900_000] {
            stats.observe(v, 1);
        }
        let prof = PathProfile {
            calls: 10,
            total_ns: 900_900,
            child_ns: 0,
            max_ns: 900_000,
            buckets: stats.buckets.to_vec(),
        };
        // 100 falls in the (64,128] bucket -> bound 128.
        assert_eq!(prof.p50_ns(), 128);
        // p99 lands in the outlier's bucket, clamped to observed max.
        assert_eq!(prof.p99_ns(), 900_000);
        assert_eq!(
            PathProfile {
                calls: 0,
                total_ns: 0,
                child_ns: 0,
                max_ns: 0,
                buckets: vec![0; LOG2_BUCKETS]
            }
            .p50_ns(),
            0
        );
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), LOG2_BUCKETS - 1);
        let mut prev = 0;
        for shift in 0..63 {
            let i = bucket_index(1u64 << shift);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn flame_table_lists_paths_with_percentages() {
        let p = SpanProfiler::new();
        {
            let _r = p.begin("pipeline");
            let _s = p.begin("stage0");
        }
        let table = p.snapshot().flame_table();
        assert!(table.contains("pipeline"));
        assert!(table.contains("  pipeline/stage0"));
        assert!(table.contains("self%"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(25_000), "25.0us");
        assert_eq!(fmt_ns(25_000_000), "25.0ms");
        assert_eq!(fmt_ns(25_000_000_000), "25.0s");
    }

    #[test]
    fn noop_span_is_inert() {
        let s = ProfileSpan::noop();
        assert!(!s.is_active());
        drop(s);
    }
}
