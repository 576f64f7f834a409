//! The metrics registry and its instruments.
//!
//! Instruments are null-object style: a disabled [`Counter`] / [`Gauge`] /
//! [`Histogram`] holds `None` and records nothing, so hot paths can call
//! them unconditionally. Enabled instruments share `Arc`ed atomic cells
//! with the registry, so cloning an instrument or the handle is free and
//! all clones feed the same series.
//!
//! A hot loop that records many times per published sample takes a
//! *tally* instead ([`Counter::tally`], [`Histogram::tally`]): plain,
//! unshared accumulators that publish into the instrument on `flush`, so
//! the loop pays one atomic per flush rather than one per record.

use crate::report::{HistogramSnapshot, Report};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when no-op).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// A local accumulator publishing into this counter on
    /// [`CounterTally::flush`].
    pub fn tally(&self) -> CounterTally {
        CounterTally {
            target: self.clone(),
            pending: 0,
        }
    }
}

/// Plain increments pending for one [`Counter`]; see [`Counter::tally`].
#[derive(Debug, Clone, Default)]
pub struct CounterTally {
    target: Counter,
    pending: u64,
}

impl CounterTally {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Publish the pending increments into the counter.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.target.add(std::mem::take(&mut self.pending));
        }
    }
}

/// A last-value (or maximum) gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A gauge that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` is larger (high-water-mark semantics).
    #[inline]
    pub fn observe_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Add `d` to the current value (level semantics, e.g. inflight jobs).
    #[inline]
    pub fn add(&self, d: u64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Subtract `d` from the current value, saturating at zero.
    #[inline]
    pub fn sub(&self, d: u64) {
        if let Some(g) = &self.0 {
            let mut cur = g.load(Ordering::Relaxed);
            loop {
                match g.compare_exchange_weak(
                    cur,
                    cur.saturating_sub(d),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Current value (0 when no-op).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound plus a final overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the bucket `v` falls in.
    fn bucket(&self, v: u64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A fixed-bucket histogram: each bucket's bound is an inclusive upper
/// limit; values above the last bound land in an implicit overflow bucket.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// A histogram that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.counts[h.bucket(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of observations (0 when no-op).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Largest observation (0 when no-op).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.max.load(Ordering::Relaxed))
    }

    /// Snapshot buckets and aggregates (empty snapshot when no-op).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |h| h.snapshot())
    }

    /// A local accumulator publishing into this histogram on
    /// [`HistogramTally::flush`]. The tally of a no-op histogram records
    /// nothing.
    pub fn tally(&self) -> HistogramTally {
        HistogramTally {
            counts: self
                .0
                .as_ref()
                .map_or_else(Vec::new, |h| vec![0; h.counts.len()]),
            target: self.clone(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Plain bucket counts, count, sum and max pending for one
/// [`Histogram`]; see [`Histogram::tally`].
#[derive(Debug, Clone, Default)]
pub struct HistogramTally {
    target: Histogram,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramTally {
    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if let Some(h) = &self.target.0 {
            self.counts[h.bucket(v)] += 1;
            self.count += 1;
            self.sum += v;
            self.max = self.max.max(v);
        }
    }

    /// Publish the pending observations into the histogram.
    pub fn flush(&mut self) {
        let Some(h) = &self.target.0 else { return };
        if self.count == 0 {
            return;
        }
        for (cell, pending) in h.counts.iter().zip(&mut self.counts) {
            if *pending > 0 {
                cell.fetch_add(std::mem::take(pending), Ordering::Relaxed);
            }
        }
        h.count
            .fetch_add(std::mem::take(&mut self.count), Ordering::Relaxed);
        h.sum
            .fetch_add(std::mem::take(&mut self.sum), Ordering::Relaxed);
        h.max
            .fetch_max(std::mem::take(&mut self.max), Ordering::Relaxed);
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

/// A concurrent registry of named metrics.
///
/// Instrument creation takes a lock (call it at setup time, not per pixel);
/// the returned instruments record lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Some(c.clone())),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Gauge(g) => Gauge(Some(g.clone())),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name` with the given inclusive upper
    /// bucket bounds. If the histogram already exists it is returned as-is
    /// (its original bounds win).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or if
    /// `bounds` is not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut slots = self.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCell::new(bounds))));
        match slot {
            Slot::Histogram(h) => Histogram(Some(h.clone())),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Snapshot every metric into a [`Report`].
    pub fn snapshot(&self) -> Report {
        let slots = self.slots.lock().expect("registry lock");
        let mut report = Report::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    report
                        .counters
                        .insert(name.clone(), c.load(Ordering::Relaxed));
                }
                Slot::Gauge(g) => {
                    report
                        .gauges
                        .insert(name.clone(), g.load(Ordering::Relaxed));
                }
                Slot::Histogram(h) => {
                    report.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        report
    }
}

/// Exponentially spaced histogram bounds: `start, start*factor, …`
/// (`count` bounds total).
///
/// # Panics
///
/// Panics if `start == 0`, `factor < 2`, or `count == 0`.
pub fn exponential_bounds(start: u64, factor: u64, count: usize) -> Vec<u64> {
    assert!(start > 0 && factor >= 2 && count > 0, "degenerate bounds");
    let mut v = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        v.push(b);
        b = b.saturating_mul(factor);
    }
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = MetricsRegistry::new();
        let c = r.counter("c");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = r.gauge("g");
        g.set(5);
        g.observe_max(3); // ignored: smaller
        g.observe_max(8);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn same_name_shares_the_cell() {
        let r = MetricsRegistry::new();
        r.counter("x").add(1);
        r.counter("x").add(2);
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn histogram_buckets_values_inclusively() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2]); // <=10, <=100, overflow
        assert_eq!(s.count, 6);
        assert_eq!(s.max, 5000);
        assert_eq!(s.sum, 5222); // 0 + 10 + 11 + 100 + 101 + 5000
    }

    #[test]
    fn tallies_publish_exactly_what_direct_records_would() {
        let direct = MetricsRegistry::new();
        let tallied = MetricsRegistry::new();
        let mut c = tallied.counter("c").tally();
        let mut h = tallied.histogram("h", &[10, 100]).tally();
        for v in [0, 10, 11, 100, 101, 5000] {
            direct.counter("c").add(v);
            direct.histogram("h", &[10, 100]).observe(v);
            c.add(v);
            h.observe(v);
        }
        assert_eq!(tallied.counter("c").get(), 0, "nothing until a flush");
        assert_eq!(tallied.histogram("h", &[10, 100]).count(), 0);
        c.flush();
        h.flush();
        assert_eq!(tallied.snapshot(), direct.snapshot());
        // A second flush publishes nothing twice.
        c.flush();
        h.flush();
        assert_eq!(tallied.snapshot(), direct.snapshot());
        let mut noop = Histogram::noop().tally();
        noop.observe(7);
        noop.flush();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let r = MetricsRegistry::new();
        r.histogram("h", &[10, 10]);
    }

    #[test]
    fn exponential_bounds_grow() {
        assert_eq!(exponential_bounds(64, 4, 4), vec![64, 256, 1024, 4096]);
    }

    #[test]
    fn snapshot_collects_every_kind() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.gauge("b").set(2);
        r.histogram("c", &[1]).observe(1);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms.len(), 1);
    }
}
