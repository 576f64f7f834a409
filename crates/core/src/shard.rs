//! Halo-sharded frame execution: split a frame into `K` row strips, run an
//! architecture per strip on a thread pool, and stitch the outputs.
//!
//! Ehsan et al.'s parallel integral-image engine and Silva & Bampi's
//! pipelined DWT architectures both scale line-buffered operators by
//! splitting frames into independently processed strips. The software
//! analogue implemented here: output rows `[g0, g1)` of an N-window
//! operator depend only on input rows `[g0, g1 + N − 1)`, so each strip
//! carries an `N − 1`-row *halo* below its output range and can be
//! processed by a private architecture instance with no cross-strip
//! communication.
//!
//! # Determinism contract
//!
//! The strip decomposition ([`ShardPlan`]) is a pure function of
//! `(window, height, strips)` — it never depends on the pool size — and
//! each strip is processed by its own architecture instance, so the
//! stitched output is **byte-identical for any `--jobs` value**, including
//! `jobs = 1`. The determinism test suite (`tests/determinism.rs`)
//! enforces this for every kernel, lossless and lossy.
//!
//! Relative to the *unsharded* sequential run there are two regimes:
//!
//! * **Lossless (`T = 0`)**: reconstruction is exact, so every strip
//!   reproduces the full-frame output rows bit-for-bit and the stitched
//!   frame equals the unsharded frame exactly (also enforced by the
//!   suite).
//! * **Lossy (`T > 0`)**: the compressed datapath recirculates
//!   *reconstructed* rows, so a pixel's value depends on the thresholding
//!   history of every row above it. A strip replays only its halo, not
//!   that full history, making sharded lossy output a deterministic
//!   approximation of the unsharded run (same threshold semantics, error
//!   of the same magnitude) rather than a bit-exact reproduction. Callers
//!   comparing lossy numbers across machines must therefore hold `strips`
//!   fixed — which this module's defaults do.
//!
//! The same reasoning applies to BRAM sizing: each strip observes its own
//! peak memory-unit occupancy and the runner aggregates the maximum, in
//! strip order, independent of scheduling.
//!
//! # One runner for every entry point
//!
//! [`ShardedFrameRunner`] is the only product code that runs a window
//! frame: the CLI, the daemon's executor and [`crate::pipeline`] all call
//! it. A frame that plans to one strip is the unsharded run: it executes
//! whole on the calling thread, with no pool dispatch and no copy, and
//! reports the full [`FrameStats`] in [`ShardedOutput::frame_stats`].

use crate::arch::{build_arch, FrameOutput, FrameStats, SlidingWindowArch};
use crate::codec::LineCodecKind;
use crate::config::ArchConfig;
use crate::error::{Result, SwError};
use crate::faults::FaultInjector;
use crate::kernels::WindowKernel;
use crate::memory_unit::MemoryUnitConfig;
use crate::planner::{plan, traditional_brams, BramPlan, MgmtAccounting};
use sw_image::ImageU8;
use sw_pool::ThreadPool;
use sw_telemetry::TelemetryHandle;

/// Default strip count. Fixed (rather than derived from the pool size) so
/// results are identical whatever `--jobs` says; 8 strips keep 8 or fewer
/// threads busy while costing only 7 halo replays per frame.
pub const DEFAULT_STRIPS: usize = 8;

/// One strip's geometry: which input rows it reads (output range plus the
/// `N − 1`-row halo) and which output rows it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripSpan {
    /// Strip index, top to bottom.
    pub index: usize,
    /// First input row this strip reads.
    pub input_row0: usize,
    /// Input rows read (`output_rows + N − 1`).
    pub input_rows: usize,
    /// First output row this strip produces.
    pub output_row0: usize,
    /// Output rows produced.
    pub output_rows: usize,
}

/// The full strip decomposition of one frame height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Window size N.
    pub window: usize,
    /// Input frame height H.
    pub height: usize,
    /// The strips, in output order. Always non-empty; covers every output
    /// row exactly once.
    pub spans: Vec<StripSpan>,
}

impl ShardPlan {
    /// Split the `H − N + 1` output rows of an N-window pass over an
    /// `H`-row frame into (up to) `strips` contiguous, near-equal strips.
    /// When the rows don't divide evenly the first `rows % strips` strips
    /// take one extra row, so ragged tails land on the *last* strip.
    /// `strips` is clamped to `[1, output_rows]`.
    ///
    /// # Panics
    ///
    /// Panics if `height < window`.
    pub fn new(window: usize, height: usize, strips: usize) -> Self {
        assert!(height >= window, "frame shorter than the window");
        let out_rows = height - window + 1;
        let k = strips.clamp(1, out_rows);
        let base = out_rows / k;
        let extra = out_rows % k;
        let mut spans = Vec::with_capacity(k);
        let mut row0 = 0usize;
        for index in 0..k {
            let output_rows = base + usize::from(index < extra);
            spans.push(StripSpan {
                index,
                input_row0: row0,
                input_rows: output_rows + window - 1,
                output_row0: row0,
                output_rows,
            });
            row0 += output_rows;
        }
        debug_assert_eq!(row0, out_rows);
        Self {
            window,
            height,
            spans,
        }
    }

    /// Number of strips.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the plan has no strips (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Per-strip execution record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripStats {
    /// The strip's geometry.
    pub span: StripSpan,
    /// Clock cycles the strip's architecture consumed.
    pub cycles: u64,
    /// The strip's peak memory-unit payload occupancy (0 for traditional
    /// buffering).
    pub peak_payload_occupancy: u64,
}

/// Result of one sharded frame.
#[derive(Debug, Clone)]
pub struct ShardedOutput {
    /// Stitched kernel output over the valid region,
    /// `(W − N + 1) × (H − N + 1)` — identical geometry to the sequential
    /// architectures.
    pub image: ImageU8,
    /// Per-strip records, in strip order.
    pub strip_stats: Vec<StripStats>,
    /// Total clock cycles across strips (strips run concurrently in
    /// hardware terms; the sum is the work metric, accumulated in strip
    /// order).
    pub cycles: u64,
    /// Maximum per-strip peak payload occupancy (compressed buffering
    /// only; 0 for traditional).
    pub peak_payload_occupancy: u64,
    /// BRAMs one strip datapath needs: the compressed plan sized from the
    /// aggregated peak, or Table I for traditional buffering.
    pub brams: u32,
    /// The compressed BRAM plan (`None` for traditional buffering).
    pub bram_plan: Option<BramPlan>,
    /// Backpressure cycles charged across strips under the `Stall`
    /// overflow policy (0 without a memory unit), summed in strip order.
    pub stall_cycles: u64,
    /// Threshold escalations across strips under the `DegradeLossy`
    /// overflow policy, summed in strip order.
    pub t_escalations: u64,
    /// Overflow events recorded across strips, summed in strip order.
    pub overflow_events: usize,
    /// The full [`FrameStats`] of a frame that ran as one strip. `None`
    /// for K strips: per-strip stats do not aggregate into one frame's.
    pub frame_stats: Option<FrameStats>,
}

impl ShardedOutput {
    /// The one-strip output of a frame `cfg`'s architecture ran whole:
    /// the same aggregates a K-strip run reports, plus the full
    /// [`FrameStats`].
    pub fn from_frame(cfg: &ArchConfig, out: FrameOutput) -> Self {
        let stats = out.stats;
        let peak = strip_peak(cfg, &stats);
        let height = out.image.height() + cfg.window - 1;
        let (brams, bram_plan) = brams_for_peak(cfg, peak);
        Self {
            image: out.image,
            strip_stats: vec![StripStats {
                span: ShardPlan::new(cfg.window, height, 1).spans[0],
                cycles: stats.cycles,
                peak_payload_occupancy: peak,
            }],
            cycles: stats.cycles,
            peak_payload_occupancy: peak,
            brams,
            bram_plan,
            stall_cycles: stats.stall_cycles,
            t_escalations: stats.t_escalations,
            overflow_events: stats.overflow_events,
            frame_stats: Some(stats),
        }
    }
}

/// A strip's peak payload occupancy as the runner aggregates it. Raw
/// buffering reports 0, as the traditional strip datapath always did: its
/// occupancy is the static span, not a measurement worth aggregating.
fn strip_peak(cfg: &ArchConfig, stats: &FrameStats) -> u64 {
    if cfg.codec == LineCodecKind::Raw {
        0
    } else {
        stats.peak_payload_occupancy
    }
}

/// BRAMs one strip datapath needs: the compressed plan sized from `peak`,
/// or Table I for traditional buffering.
fn brams_for_peak(cfg: &ArchConfig, peak: u64) -> (u32, Option<BramPlan>) {
    if cfg.codec == LineCodecKind::Raw {
        (traditional_brams(cfg.window, cfg.width), None)
    } else {
        let p = plan(cfg.window, cfg.width, peak, MgmtAccounting::Structured);
        (p.total_brams(), Some(p))
    }
}

/// Runs a window frame: the one place that decides how a frame executes.
///
/// A frame that plans to one strip runs whole on the calling thread; K
/// strips run strip-parallel over a [`ThreadPool`]. The runner itself is
/// immutable (`run` takes `&self`): every run builds private architecture
/// instances, so one runner can be shared across threads and frames.
#[derive(Debug, Clone)]
pub struct ShardedFrameRunner {
    cfg: ArchConfig,
    strips: usize,
    telemetry: TelemetryHandle,
    name: String,
    memory_unit: Option<MemoryUnitConfig>,
    faults: Option<FaultInjector>,
}

impl ShardedFrameRunner {
    /// Runner for `cfg` with [`DEFAULT_STRIPS`] strips. The buffering mode
    /// is `cfg.codec` (raw line buffers for [`LineCodecKind::Raw`],
    /// compressing codecs otherwise) and the threshold is `cfg.threshold`.
    pub fn new(cfg: ArchConfig) -> Self {
        Self {
            cfg,
            strips: DEFAULT_STRIPS,
            telemetry: TelemetryHandle::disabled(),
            name: "frame".to_string(),
            memory_unit: None,
            faults: None,
        }
    }

    /// Enforce a frame-wide memory-unit capacity. Each strip's private
    /// datapath receives `cfg.per_strip(strips)` — an equal share of the
    /// budget — so the policy outcome is a pure function of the strip
    /// decomposition, never of `--jobs`.
    pub fn with_memory_unit(mut self, cfg: MemoryUnitConfig) -> Self {
        self.memory_unit = Some(cfg);
        self
    }

    /// Inject deterministic faults. Every strip receives the same
    /// injector; fault indices count each strip's private encode sequence.
    pub fn with_fault_injector(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Override the strip count. Fix this (not `--jobs`) to keep outputs
    /// comparable across machines; it is clamped per-frame to the number
    /// of output rows.
    pub fn with_strips(mut self, strips: usize) -> Self {
        assert!(strips >= 1, "at least one strip is required");
        self.strips = strips;
        self
    }

    /// Bind telemetry under the default name `frame`.
    pub fn with_telemetry(self, telemetry: &TelemetryHandle) -> Self {
        self.with_named_telemetry(telemetry, "frame")
    }

    /// Bind telemetry under `name`. A one-strip frame binds its
    /// architecture's instruments (`stage.<name>.*`, `fifo.<name>.*`, and
    /// the `frame` profiling span) exactly as a direct
    /// [`SlidingWindowArch::bind_telemetry`] call would.
    ///
    /// K strips record under `shard.<name>.*`: per-strip cycle counters,
    /// the strip count, and the pool's scheduling gauges
    /// (`pool.{workers,steals,items,queue_depth_high_water}`). The
    /// hierarchical profiler records a `shard.<name>` span nesting one
    /// `strip<i>` entry per strip. Strip durations are measured on the
    /// worker threads but recorded by the calling thread after the join,
    /// so the span paths are deterministic regardless of how the pool
    /// schedules the strips. Because strips run concurrently, the
    /// recorded strip time is *work* time and may exceed the parent
    /// span's wall-clock time; the parent's self time saturates at zero
    /// in that case.
    pub fn with_named_telemetry(mut self, telemetry: &TelemetryHandle, name: &str) -> Self {
        self.telemetry = telemetry.clone();
        self.name = name.to_string();
        self
    }

    /// The configured strip count (before per-frame clamping).
    pub fn strips(&self) -> usize {
        self.strips
    }

    /// Process one frame. One strip runs inline on the calling thread
    /// (`pool` is not touched, the frame is not copied); K strips run
    /// strip-parallel on `pool` and are stitched in strip order.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] if the image width differs from the configured
    /// width, the image is shorter than the window, or the kernel's window
    /// size mismatches; otherwise the first error any strip surfaces,
    /// taken in strip order (scheduling-independent).
    pub fn run(
        &self,
        img: &ImageU8,
        kernel: &dyn WindowKernel,
        pool: &ThreadPool,
    ) -> Result<ShardedOutput> {
        let n = self.cfg.window;
        if img.width() != self.cfg.width {
            return Err(SwError::config(format!(
                "image width {} does not match the configured width {}",
                img.width(),
                self.cfg.width
            )));
        }
        if img.height() < n {
            return Err(SwError::config(format!(
                "image height {} is shorter than the {n}-row window",
                img.height()
            )));
        }
        if kernel.window_size() != n {
            return Err(SwError::config(format!(
                "kernel window size {} does not match the architecture window {n}",
                kernel.window_size()
            )));
        }

        let shard_plan = ShardPlan::new(n, img.height(), self.strips);
        if shard_plan.len() == 1 {
            let mut arch = build_arch(&self.cfg)?;
            arch.bind_telemetry(&self.telemetry, &self.name);
            self.install(arch.as_mut(), self.memory_unit);
            let out = arch.process_frame(img, kernel)?;
            return Ok(ShardedOutput::from_frame(&self.cfg, out));
        }

        let spans = &shard_plan.spans;
        let mu_per_strip = self.memory_unit.map(|mu| mu.per_strip(spans.len()));
        let shard_span = self.telemetry.profile_span(&format!("shard.{}", self.name));
        let results = pool.par_map_indexed(spans.len(), |i| {
            let span = spans[i];
            let t0 = self.telemetry.is_enabled().then(std::time::Instant::now);
            let sub = img.crop(0, span.input_row0, img.width(), span.input_rows);
            let mut arch = build_arch(&self.cfg)?;
            self.install(arch.as_mut(), mu_per_strip);
            let out = arch.process_frame(&sub, kernel)?;
            let peak = strip_peak(&self.cfg, &out.stats);
            let strip_ns = t0.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            Ok((out.image, out.stats, peak, strip_ns))
        });
        // Propagate the first failure in strip order so the reported error
        // is independent of scheduling.
        let results = results.into_iter().collect::<Result<Vec<_>>>()?;

        // Stitch in strip order; all aggregation is scheduling-independent.
        let ow = img.width() - n + 1;
        let oh = img.height() - n + 1;
        let mut image = ImageU8::filled(ow, oh, 0);
        let mut strip_stats = Vec::with_capacity(spans.len());
        let mut cycles = 0u64;
        let mut peak = 0u64;
        let mut stall_cycles = 0u64;
        let mut t_escalations = 0u64;
        let mut overflow_events = 0usize;
        for (span, (strip_img, stats, strip_peak, strip_ns)) in spans.iter().zip(&results) {
            debug_assert_eq!(strip_img.height(), span.output_rows);
            debug_assert_eq!(strip_img.width(), ow);
            for r in 0..span.output_rows {
                let y = span.output_row0 + r;
                image.pixels_mut()[y * ow..(y + 1) * ow].copy_from_slice(strip_img.row(r));
            }
            cycles += stats.cycles;
            peak = peak.max(*strip_peak);
            stall_cycles += stats.stall_cycles;
            t_escalations += stats.t_escalations;
            overflow_events += stats.overflow_events;
            strip_stats.push(StripStats {
                span: *span,
                cycles: stats.cycles,
                peak_payload_occupancy: *strip_peak,
            });
            self.telemetry
                .counter(&format!("shard.{}.strip{}.cycles", self.name, span.index))
                .add(stats.cycles);
            if let Some(ns) = strip_ns {
                // Recorded here (caller thread, strip order), not on the
                // worker, so the profile nests under `shard.<name>`
                // deterministically.
                self.telemetry
                    .profile_record(&format!("strip{}", span.index), *ns, 1);
            }
        }
        drop(shard_span);

        let (brams, bram_plan) = brams_for_peak(&self.cfg, peak);

        let pool_stats = pool.stats();
        self.telemetry
            .gauge(&format!("shard.{}.strips", self.name))
            .set(spans.len() as u64);
        self.telemetry
            .gauge("pool.workers")
            .set(pool_stats.workers as u64);
        self.telemetry.gauge("pool.steals").set(pool_stats.steals);
        self.telemetry.gauge("pool.items").set(pool_stats.items);
        self.telemetry
            .gauge("pool.queue_depth_high_water")
            .observe_max(pool_stats.queue_depth_high_water);
        self.telemetry
            .counter(&format!("shard.{}.cycles", self.name))
            .add(cycles);

        Ok(ShardedOutput {
            image,
            strip_stats,
            cycles,
            peak_payload_occupancy: peak,
            brams,
            bram_plan,
            stall_cycles,
            t_escalations,
            overflow_events,
            frame_stats: None,
        })
    }

    /// Install the memory unit `mu` (this strip's share of the budget)
    /// and the fault injector on a fresh architecture.
    fn install(&self, arch: &mut dyn SlidingWindowArch, mu: Option<MemoryUnitConfig>) {
        if mu.is_some() {
            arch.set_memory_unit(mu);
        }
        if self.faults.is_some() {
            arch.set_fault_injector(self.faults.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{BoxFilter, Tap};
    use crate::memory_unit::OverflowPolicy;
    use crate::reference::direct_sliding_window;

    fn test_image(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| ((x * 7 + y * 13 + (x * y) % 5) % 256) as u8)
    }

    #[test]
    fn plan_partitions_output_rows_exactly() {
        for (h, n, k) in [(67, 4, 4), (67, 8, 5), (16, 8, 3), (64, 8, 8), (9, 8, 4)] {
            let p = ShardPlan::new(n, h, k);
            let out_rows = h - n + 1;
            assert!(p.len() <= k && !p.is_empty());
            let mut next = 0usize;
            for s in &p.spans {
                assert_eq!(s.output_row0, next, "contiguous strips");
                assert_eq!(s.input_row0, s.output_row0);
                assert_eq!(s.input_rows, s.output_rows + n - 1);
                assert!(s.input_row0 + s.input_rows <= h, "halo stays in frame");
                next += s.output_rows;
            }
            assert_eq!(next, out_rows, "strips cover every output row once");
            // Near-equal split: sizes differ by at most one row.
            let sizes: Vec<_> = p.spans.iter().map(|s| s.output_rows).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "ragged split {sizes:?}");
        }
    }

    #[test]
    fn plan_clamps_strip_count_to_output_rows() {
        let p = ShardPlan::new(8, 10, 64); // only 3 output rows
        assert_eq!(p.len(), 3);
        assert!(p.spans.iter().all(|s| s.output_rows == 1));
    }

    #[test]
    #[should_panic(expected = "shorter than the window")]
    fn plan_rejects_undersized_frames() {
        ShardPlan::new(8, 7, 4);
    }

    #[test]
    fn sharded_traditional_matches_direct_reference() {
        let img = test_image(24, 19); // ragged: 16 output rows over 5 strips
        let kernel = BoxFilter::new(4);
        let pool = ThreadPool::new(2);
        let runner = ShardedFrameRunner::new(
            ArchConfig::builder(4, 24)
                .codec(LineCodecKind::Raw)
                .build()
                .unwrap(),
        )
        .with_strips(5);
        let got = runner.run(&img, &kernel, &pool).unwrap();
        assert_eq!(got.image, direct_sliding_window(&img, &kernel));
        assert!(got.bram_plan.is_none());
        assert_eq!(got.strip_stats.len(), 5);
    }

    #[test]
    fn telemetry_records_strips_and_pool_gauges() {
        let t = TelemetryHandle::new();
        let img = test_image(24, 16);
        let pool = ThreadPool::new(2);
        let runner = ShardedFrameRunner::new(ArchConfig::builder(4, 24).build().unwrap())
            .with_strips(4)
            .with_named_telemetry(&t, "f0");
        let out = runner.run(&img, &Tap::top_left(4), &pool).unwrap();
        let r = t.report();
        assert_eq!(r.gauges["shard.f0.strips"], 4);
        assert_eq!(r.gauges["pool.workers"], 1);
        assert_eq!(r.counters["shard.f0.cycles"], out.cycles);
        let strip_sum: u64 = (0..4)
            .map(|i| r.counters[&format!("shard.f0.strip{i}.cycles")])
            .sum();
        assert_eq!(strip_sum, out.cycles);
        assert!(out.frame_stats.is_none(), "K strips report no frame stats");
    }

    #[test]
    fn one_strip_is_the_unsharded_run() {
        let img = test_image(40, 20);
        let pool = ThreadPool::new(2);
        let kernel = BoxFilter::new(4);
        let budgets = [
            None,
            Some(MemoryUnitConfig::new(300, OverflowPolicy::Stall)),
            Some(MemoryUnitConfig::new(300, OverflowPolicy::DegradeLossy)),
            Some(MemoryUnitConfig::new(300, OverflowPolicy::Fail)),
        ];
        for codec in LineCodecKind::ALL {
            for threshold in [0, 3] {
                let cfg = ArchConfig::builder(4, 40)
                    .codec(codec)
                    .threshold(threshold)
                    .build()
                    .unwrap();
                for mu in budgets {
                    for faults in [None, Some(FaultInjector::seeded(7))] {
                        let mut arch = build_arch(&cfg).unwrap();
                        arch.set_memory_unit(mu);
                        arch.set_fault_injector(faults.clone());
                        let want = arch.process_frame(&img, &kernel);

                        let mut runner = ShardedFrameRunner::new(cfg).with_strips(1);
                        if let Some(mu) = mu {
                            runner = runner.with_memory_unit(mu);
                        }
                        if let Some(f) = faults.clone() {
                            runner = runner.with_fault_injector(f);
                        }
                        let got = runner.run(&img, &kernel, &pool);
                        let case = format!("{} T{threshold} {mu:?} {faults:?}", codec.name());
                        match (want, got) {
                            (Ok(want), Ok(got)) => {
                                assert_eq!(got.image, want.image, "{case}");
                                assert_eq!(got.frame_stats, Some(want.stats), "{case}");
                                assert_eq!(got.cycles, want.stats.cycles, "{case}");
                                assert_eq!(got.stall_cycles, want.stats.stall_cycles, "{case}");
                                assert_eq!(got.t_escalations, want.stats.t_escalations, "{case}");
                            }
                            (Err(want), Err(got)) => {
                                assert_eq!(got.to_string(), want.to_string(), "{case}")
                            }
                            (want, got) => panic!("{case}: {want:?} vs {got:?}"),
                        }
                    }
                }
            }
        }
        // The inline run never touches the pool.
        assert_eq!(pool.stats().batches, 0);
    }

    #[test]
    fn one_strip_binds_the_architecture_telemetry() {
        let t = TelemetryHandle::new();
        let img = test_image(24, 16);
        let pool = ThreadPool::new(2);
        let out = ShardedFrameRunner::new(ArchConfig::builder(4, 24).build().unwrap())
            .with_strips(1)
            .with_named_telemetry(&t, "f0")
            .run(&img, &Tap::top_left(4), &pool)
            .unwrap();
        let r = t.report();
        assert_eq!(r.counters["stage.f0.cycles"], out.cycles);
        assert!(!r.gauges.contains_key("shard.f0.strips"));
        assert_eq!(t.profile_snapshot().paths["frame"].calls, 1);
    }

    #[test]
    fn hierarchical_profile_nests_strips_deterministically() {
        let t = TelemetryHandle::new();
        let img = test_image(24, 16);
        let pool = ThreadPool::new(2);
        let runner = ShardedFrameRunner::new(ArchConfig::builder(4, 24).build().unwrap())
            .with_strips(4)
            .with_named_telemetry(&t, "f0");
        runner.run(&img, &Tap::top_left(4), &pool).unwrap();
        runner.run(&img, &Tap::top_left(4), &pool).unwrap();
        let snap = t.profile_snapshot();
        assert_eq!(snap.abandoned, 0, "no spans may lose their timing");
        let shard = &snap.paths["shard.f0"];
        assert_eq!(shard.calls, 2);
        for i in 0..4 {
            let strip = &snap.paths[&format!("shard.f0/strip{i}")];
            assert_eq!(strip.calls, 2, "strip{i} recorded once per frame");
        }
        // Strip time is work time: it is attributed to the parent as
        // child time even though strips overlap in wall-clock terms.
        let child_sum: u64 = (0..4)
            .map(|i| snap.paths[&format!("shard.f0/strip{i}")].total_ns)
            .sum();
        assert_eq!(shard.child_ns, child_sum);
    }
}
