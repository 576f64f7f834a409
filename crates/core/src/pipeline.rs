//! Multi-stage sliding-window pipelines.
//!
//! The paper's introduction motivates the BRAM problem with pipelines:
//! "most image processing algorithms consists of 2-5 sequential sliding
//! window operations, where the output of one operation is fed via line
//! buffers to the following operation. These implementations require a high
//! number of BRAMs for implementing multiple sets of buffer lines." This
//! module chains stages, runs frames through them, and totals the BRAM cost
//! under traditional vs compressed buffering.

use crate::analysis::analyze_frame;
use crate::codec::LineCodecKind;
use crate::config::ArchConfig;
use crate::error::{Result, SwError};
use crate::faults::FaultInjector;
use crate::kernels::WindowKernel;
use crate::memory_unit::MemoryUnitConfig;
use crate::planner::{plan, BramPlan, MgmtAccounting};
use crate::shard::ShardedFrameRunner;
use sw_image::ImageU8;
use sw_pool::ThreadPool;
use sw_telemetry::TelemetryHandle;

/// One pipeline stage: a kernel plus how its line buffers are realized —
/// a [`LineCodecKind`] and a threshold, the same pair [`ArchConfig`]
/// carries.
pub struct Stage {
    /// The window kernel.
    pub kernel: Box<dyn WindowKernel>,
    /// The line codec buffering this stage's recirculated rows.
    pub codec: LineCodecKind,
    /// Threshold `T` for this stage (0 = lossless; ignored by codecs that
    /// are inherently lossless).
    pub threshold: i16,
}

impl Stage {
    /// Traditional-buffered stage (raw line buffers, Section III).
    pub fn traditional(kernel: Box<dyn WindowKernel>) -> Self {
        Self::with_codec(kernel, LineCodecKind::Raw, 0)
    }

    /// Compressed-buffered stage (the paper's Haar codec, Section V).
    pub fn compressed(kernel: Box<dyn WindowKernel>, threshold: i16) -> Self {
        Self::with_codec(kernel, LineCodecKind::Haar, threshold)
    }

    /// Stage buffered through an arbitrary line codec.
    pub fn with_codec(kernel: Box<dyn WindowKernel>, codec: LineCodecKind, threshold: i16) -> Self {
        Self {
            kernel,
            codec,
            threshold,
        }
    }
}

/// Result of running a frame through the pipeline.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The final stage's output image.
    pub image: ImageU8,
    /// Per-stage BRAM plans (compressed stages sized from this frame's
    /// measured occupancy; traditional stages from Table I).
    pub stage_brams: Vec<u32>,
    /// Total clock cycles across stages (stages pipeline in hardware; the
    /// sum is the sequential-simulation cost).
    pub cycles: u64,
}

impl PipelineOutput {
    /// Total BRAMs across all stages.
    pub fn total_brams(&self) -> u32 {
        self.stage_brams.iter().sum()
    }
}

/// A chain of sliding-window stages.
pub struct Pipeline {
    stages: Vec<Stage>,
    telemetry: TelemetryHandle,
    memory_unit: Option<MemoryUnitConfig>,
    faults: Option<FaultInjector>,
}

impl Pipeline {
    /// Build a pipeline from stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        Self {
            stages,
            telemetry: TelemetryHandle::disabled(),
            memory_unit: None,
            faults: None,
        }
    }

    /// Enforce a memory-unit capacity on every stage (the same budget per
    /// stage; sharded runs split it per strip).
    pub fn with_memory_unit(mut self, cfg: MemoryUnitConfig) -> Self {
        self.memory_unit = Some(cfg);
        self
    }

    /// Inject deterministic faults into every stage.
    pub fn with_fault_injector(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Record per-stage telemetry into `telemetry`: stage `i` reports under
    /// `stage.stage<i>.*` / `fifo.stage<i>.*` (sharded runs: under
    /// `shard.stage<i>.*`). The hierarchical profiler times each stage as
    /// `pipeline` → `pipeline/stage<i>` → `pipeline/stage<i>/frame` →
    /// `…/frame/{encode,decode}` span paths (rendered by
    /// `TelemetryHandle::flame_table`).
    pub fn with_telemetry(mut self, telemetry: &TelemetryHandle) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Run one frame through every stage, shrinking the valid region at
    /// each step, and report per-stage BRAM costs. Each stage runs its
    /// whole frame on the calling thread.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] if an intermediate image becomes smaller than
    /// the next stage's window; any memory-unit or fault-injection error
    /// a stage's datapath surfaces.
    pub fn run(&self, input: &ImageU8) -> Result<PipelineOutput> {
        self.run_sharded(input, &ThreadPool::new(1), 1)
    }

    /// [`Pipeline::run`] with every stage executed strip-parallel on
    /// `pool` via the halo-sharded runner ([`crate::shard`]).
    ///
    /// The strip count is fixed by `strips` (not by the pool size), so the
    /// output is byte-identical for any `--jobs` value. Compressed stages
    /// size their BRAM plan from the maximum per-strip peak occupancy —
    /// the capacity one strip datapath must provision.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] if an intermediate image becomes smaller than
    /// the next stage's window; the first error any strip surfaces (in
    /// strip order).
    pub fn run_sharded(
        &self,
        input: &ImageU8,
        pool: &ThreadPool,
        strips: usize,
    ) -> Result<PipelineOutput> {
        let mut img = input.clone();
        let mut stage_brams = Vec::with_capacity(self.stages.len());
        let mut cycles = 0u64;
        let _pipeline_span = self.telemetry.profile_span("pipeline");
        for (i, stage) in self.stages.iter().enumerate() {
            let n = stage.kernel.window_size();
            if img.width() <= n || img.height() < n {
                return Err(SwError::config(format!(
                    "stage {i}: intermediate image {}x{} too small for a {n}-pixel window",
                    img.width(),
                    img.height()
                )));
            }
            let stage_name = format!("stage{i}");
            let _stage_span = self.telemetry.profile_span(&stage_name);
            let cfg = ArchConfig::new(n, img.width())
                .with_codec(stage.codec)
                .with_threshold(stage.threshold);
            let mut runner = ShardedFrameRunner::new(cfg)
                .with_strips(strips)
                .with_named_telemetry(&self.telemetry, &stage_name);
            if let Some(mu) = self.memory_unit {
                runner = runner.with_memory_unit(mu);
            }
            if let Some(faults) = self.faults.clone() {
                runner = runner.with_fault_injector(faults);
            }
            let out = runner.run(&img, stage.kernel.as_ref(), pool)?;
            stage_brams.push(out.brams);
            cycles += out.cycles;
            img = out.image;
        }
        Ok(PipelineOutput {
            image: img,
            stage_brams,
            cycles,
        })
    }

    /// Static BRAM plan for the whole pipeline at a given input width,
    /// sizing compressed stages from a representative frame.
    pub fn plan_brams(&self, frame: &ImageU8) -> Vec<BramPlan> {
        let mut width = frame.width();
        let mut img = frame.clone();
        let mut plans = Vec::new();
        for stage in &self.stages {
            let n = stage.kernel.window_size();
            let t = if stage.codec == LineCodecKind::Raw {
                0
            } else {
                stage.threshold
            };
            let cfg = ArchConfig::new(n, width).with_threshold(t);
            let a = analyze_frame(&img, &cfg);
            plans.push(plan(
                n,
                width,
                a.worst_payload_occupancy,
                MgmtAccounting::Structured,
            ));
            // Approximate the next stage's input geometry.
            if width > n && img.height() > n {
                img = img.crop(0, 0, width - n + 1, img.height() - n + 1);
                width -= n - 1;
            }
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{BoxFilter, GaussianFilter, SobelMagnitude};

    fn scene(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| {
            (100.0 + 70.0 * ((x + 2 * y) as f64 * 0.05).sin()) as u8
        })
    }

    #[test]
    fn two_stage_pipeline_shrinks_valid_region() {
        let p = Pipeline::new(vec![
            Stage::compressed(Box::new(GaussianFilter::new(8)), 0),
            Stage::compressed(Box::new(SobelMagnitude::new(4)), 0),
        ]);
        let img = scene(64, 48);
        let out = p.run(&img).unwrap();
        // 64 -> 57 -> 54 wide.
        assert_eq!(out.image.width(), 54);
        assert_eq!(out.image.height(), 38);
        assert_eq!(out.stage_brams.len(), 2);
        assert_eq!(out.cycles, 64 * 48 + 57 * 41);
    }

    #[test]
    fn compressed_stages_use_fewer_brams_than_traditional() {
        let img = scene(512, 64);
        let trad = Pipeline::new(vec![
            Stage::traditional(Box::new(GaussianFilter::new(16))),
            Stage::traditional(Box::new(BoxFilter::new(8))),
        ]);
        let comp = Pipeline::new(vec![
            Stage::compressed(Box::new(GaussianFilter::new(16)), 0),
            Stage::compressed(Box::new(BoxFilter::new(8)), 0),
        ]);
        let t = trad.run(&img).unwrap().total_brams();
        let c = comp.run(&img).unwrap().total_brams();
        assert!(c < t, "compressed pipeline {c} vs traditional {t}");
    }

    #[test]
    fn lossless_compressed_pipeline_matches_traditional_output() {
        let img = scene(96, 48);
        let a = Pipeline::new(vec![
            Stage::traditional(Box::new(GaussianFilter::new(8))),
            Stage::traditional(Box::new(SobelMagnitude::new(4))),
        ]);
        let b = Pipeline::new(vec![
            Stage::compressed(Box::new(GaussianFilter::new(8)), 0),
            Stage::compressed(Box::new(SobelMagnitude::new(4)), 0),
        ]);
        assert_eq!(a.run(&img).unwrap().image, b.run(&img).unwrap().image);
    }

    #[test]
    fn plan_brams_covers_every_stage() {
        let p = Pipeline::new(vec![
            Stage::compressed(Box::new(GaussianFilter::new(8)), 2),
            Stage::compressed(Box::new(BoxFilter::new(8)), 2),
        ]);
        let plans = p.plan_brams(&scene(256, 64));
        assert_eq!(plans.len(), 2);
        assert!(plans.iter().all(|p| p.fits));
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        Pipeline::new(vec![]);
    }

    #[test]
    fn telemetry_covers_every_stage() {
        let t = sw_telemetry::TelemetryHandle::new();
        let p = Pipeline::new(vec![
            Stage::traditional(Box::new(GaussianFilter::new(8))),
            Stage::compressed(Box::new(SobelMagnitude::new(4)), 2),
        ])
        .with_telemetry(&t);
        let out = p.run(&scene(64, 48)).unwrap();
        let r = t.report();
        // Per-stage cycle counters sum to the pipeline total.
        assert_eq!(
            r.counters["stage.stage0.cycles"] + r.counters["stage.stage1.cycles"],
            out.cycles
        );
        // The compressed stage reports codec traffic; the traditional one
        // reports line-buffer occupancy.
        assert!(r.counters["stage.stage1.packer.columns"] > 0);
        assert!(r.gauges["fifo.stage0.high_water_bits"] > 0);
        // The profiler timed each stage once.
        let snap = t.profile_snapshot();
        assert_eq!(snap.paths["pipeline/stage0"].calls, 1);
        assert_eq!(snap.paths["pipeline/stage1"].calls, 1);
    }

    #[test]
    fn hierarchical_profile_decomposes_stages_into_datapath_spans() {
        let t = sw_telemetry::TelemetryHandle::new();
        let p = Pipeline::new(vec![
            Stage::compressed(Box::new(GaussianFilter::new(8)), 0),
            Stage::compressed(Box::new(SobelMagnitude::new(4)), 0),
        ])
        .with_telemetry(&t);
        p.run(&scene(64, 48)).unwrap();
        let snap = t.profile_snapshot();
        for path in [
            "pipeline",
            "pipeline/stage0",
            "pipeline/stage0/frame",
            "pipeline/stage0/frame/encode",
            "pipeline/stage0/frame/decode",
            "pipeline/stage1/frame/encode",
        ] {
            assert!(snap.paths.contains_key(path), "missing span path {path}");
        }
        assert_eq!(snap.paths["pipeline"].calls, 1);
        assert_eq!(snap.paths["pipeline/stage0/frame"].calls, 1);
        assert_eq!(snap.abandoned, 0);
        // Stage spans cover their frames: child time <= total time, and the
        // pipeline's children account for both stages.
        let pipeline = &snap.paths["pipeline"];
        let s0 = &snap.paths["pipeline/stage0"];
        let s1 = &snap.paths["pipeline/stage1"];
        assert!(pipeline.child_ns >= s0.total_ns + s1.total_ns - 1);
        assert!(s0.child_ns <= s0.total_ns);
    }
}
