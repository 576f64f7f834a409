//! # Modified Sliding Window — compressed line buffers for FPGA image pipelines
//!
//! A complete software reproduction of Qasaimeh, Zambreno & Jones,
//! *"A Modified Sliding Window Architecture for Efficient BRAM Resource
//! Utilization"* (IPDPS RAW 2017).
//!
//! Sliding-window image operators on FPGAs buffer `N − 1` image rows in
//! on-chip Block RAM. This crate reproduces the paper's alternative: buffer
//! the rows *compressed* — integer Haar wavelet decomposition, per-column
//! minimum-width bit packing with a significance bitmap, and a configurable
//! threshold for lossless or lossy operation — cutting BRAM usage by
//! 25–70 % lossless and up to ~84 % lossy, at unchanged 1-pixel-per-clock
//! throughput.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`wavelet`] — integer Haar (S-transform) and LeGall 5/3 wavelets.
//! * [`bitstream`] — NBits logic, bit packing/unpacking units, column codec.
//! * [`fpga`] — BRAM18 model, FIFOs, resource estimator, device catalog.
//! * [`image`] — image container, metrics, PGM I/O, synthetic scene dataset.
//! * [`core`] — the architectures (traditional and compressed), analyzer,
//!   BRAM planner, kernels, pipelines, halo-sharded frame runner, adaptive
//!   threshold control.
//! * [`pool`] — the work-stealing thread pool behind the dataset sweeps and
//!   the sharded runner (`--jobs` / `SWC_JOBS` select its size).
//! * [`telemetry`] — the observability substrate: metrics registry, span
//!   timers, hierarchical span profiler, cycle-domain trace ring,
//!   machine-readable run reports.
//! * [`bench`](mod@bench) — the evaluation harness: paper table/figure regeneration
//!   and the `swc bench` performance matrix with its regression gate.
//! * [`serve`] — the serving layer: the typed job API (`JobRequest` /
//!   `JobResponse` over a canonical length-prefixed wire format), the
//!   multi-tenant `swc serve` daemon, and the client/load generator.
//!
//! ## Quick start
//!
//! ```
//! use modified_sliding_window::prelude::*;
//!
//! // A synthetic "natural" scene (the dataset substitutes MIT Places).
//! let img = ScenePreset::ALL[0].render(128, 128);
//!
//! // Lossless compressed line buffers, 8×8 window. Configurations are
//! // validated up front and every frame-processing entry point returns
//! // `Result` — see [`core::error::SwError`].
//! let cfg = ArchConfig::builder(8, img.width()).build()?;
//! let mut arch = CompressedSlidingWindow::new(cfg);
//! let out = arch.process_frame(&img, &GaussianFilter::new(8))?;
//!
//! // Identical output to the raw-buffer architecture...
//! let mut baseline = TraditionalSlidingWindow::new(cfg);
//! assert_eq!(out.image, baseline.process_frame(&img, &GaussianFilter::new(8))?.image);
//!
//! // ...with fewer BRAMs.
//! let plan = plan(8, img.width(), out.stats.peak_payload_occupancy, MgmtAccounting::Structured);
//! assert!(plan.total_brams() < traditional_brams(8, img.width()));
//! # Ok::<(), SwError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sw_bench as bench;
pub use sw_bitstream as bitstream;
pub use sw_core as core;
pub use sw_fpga as fpga;
pub use sw_image as image;
pub use sw_pool as pool;
pub use sw_serve as serve;
pub use sw_telemetry as telemetry;
pub use sw_wavelet as wavelet;

/// One-stop imports for applications.
pub mod prelude {
    pub use sw_core::adaptive::{AdaptiveConfig, AdaptiveThreshold, Adjustment};
    pub use sw_core::analysis::{analyze_frame, analyze_frame_par, occupancy_trace, FrameAnalysis};
    pub use sw_core::arch::{
        build_arch, FrameOutput, FrameStats, SlidingWindow, SlidingWindowArch,
    };
    pub use sw_core::codec::{LineCodec, LineCodecKind};
    pub use sw_core::color::{ColorCompressedSlidingWindow, ColorOutput};
    pub use sw_core::compressed::CompressedSlidingWindow;
    pub use sw_core::config::{ArchConfig, ArchConfigBuilder, NBitsGranularity, ThresholdPolicy};
    pub use sw_core::error::SwError;
    pub use sw_core::faults::{FaultInjector, FaultSite, FaultSpec};
    pub use sw_core::kernels::{
        BoxFilter, CensusTransform, Convolution, Dilate, Erode, GaussianFilter, HarrisResponse,
        LocalBinaryPattern, MedianFilter, SeparableConv, SobelMagnitude, Tap, TemplateSad,
        WindowKernel,
    };
    pub use sw_core::memory_unit::{MemoryUnit, MemoryUnitConfig, OverflowPolicy};
    pub use sw_core::pipeline::{Pipeline, PipelineOutput, Stage};
    pub use sw_core::planner::{plan, traditional_brams, BramPlan, MgmtAccounting};
    pub use sw_core::reference::direct_sliding_window;
    pub use sw_core::rtl::RtlCompressedSlidingWindow;
    pub use sw_core::shard::{
        ShardPlan, ShardedFrameRunner, ShardedOutput, StripSpan, StripStats, DEFAULT_STRIPS,
    };
    pub use sw_core::stats::summarize;
    pub use sw_core::traditional::TraditionalSlidingWindow;
    pub use sw_fpga::device::Device;
    pub use sw_fpga::resources::{estimate, ModuleKind, ResourceEstimate};
    pub use sw_image::{dataset, degenerate_suite, mse, psnr, ImageRgb, ImageU8, ScenePreset};
    pub use sw_pool::{configure_global, default_jobs, parse_jobs, PoolStats, ThreadPool};
    pub use sw_serve::{
        Client, Daemon, DaemonConfig, JobError, JobRequest, JobResponse, JobSpec, JobSpecBuilder,
        Listen, TenantGovernor, TenantPolicy,
    };
    pub use sw_telemetry::{Report, TelemetryHandle};
}
