//! The modified sliding window architecture — core library.
//!
//! This crate is the paper's primary contribution, reproduced as a
//! bit-accurate streaming simulation on top of the substrate crates:
//!
//! * [`config`] — architecture parameters (window size, image width,
//!   threshold, threshold policy, NBits granularity, line codec).
//! * [`codec`] — the pluggable line-codec layer ([`codec::LineCodec`]):
//!   raw passthrough, the paper's Haar IWT, the two-level extension,
//!   LeGall 5/3 lifting, and a LOCO-I predictive baseline.
//! * [`arch`] — the unified sliding-window datapath
//!   ([`arch::SlidingWindow`]) generic over the codec, and the
//!   object-safe [`arch::SlidingWindowArch`] trait with
//!   [`arch::build_arch`] for config-driven selection.
//! * [`window`] — the N×N active window of shift registers and the
//!   [`window::WindowView`] handed to processing kernels.
//! * [`kernels`] — window operators (box, Gaussian, Sobel, median,
//!   morphology, taps, template matching) exercising the architectures.
//! * [`mod@reference`] — the direct (non-streaming) golden model.
//! * [`rtl`] — the register-transfer-level datapath: the memory unit holds
//!   raw packed bits in hardware FIFOs driven by the register-exact
//!   Bit Packing / Bit Unpacking units and the gate-level NBits circuit.
//! * [`traditional`] — the classic line-buffer architecture of Section III
//!   (Figure 1): `N − 1` row FIFOs of raw pixels.
//! * [`color`] — three-channel (24-bit) instantiations: per-plane
//!   datapaths with aggregated budgets.
//! * [`compressed`] — the paper's architecture (Section V, Figure 4):
//!   IWT → Bit Packing → Memory Unit → Bit Unpacking → IIWT, recirculating
//!   each buffered row in compressed form.
//! * [`compressed_ml`] — the two-level extension the paper declined:
//!   the LL stream recurses through a second transform level in-stream.
//! * [`analysis`] — the one-pass frame analyzer producing the paper's
//!   Figure 3 occupancy curves and the Figure 13 / Tables II–V memory
//!   statistics.
//! * [`planner`] — BRAM allocation (Tables I–V): row-per-BRAM mapping
//!   selection (Figure 11) and management-bit BRAM sizing.
//! * [`pipeline`] — chains of sliding-window stages sharing the compressed
//!   buffering (the paper's "2–5 sequential sliding window operations"
//!   motivation).
//! * [`shard`] — halo-sharded frame execution: `K` row strips with
//!   `N − 1`-row halos processed concurrently on a work-stealing pool and
//!   stitched deterministically (byte-identical for any `--jobs`).
//! * [`adaptive`] — the paper's *future work*: a per-frame threshold
//!   controller that keeps packed bits within a BRAM budget.
//! * [`error`] — the crate-wide [`error::SwError`] / [`error::Result`]
//!   types every fallible public entry point returns.
//! * [`memory_unit`] — the capacity-enforcing Memory Unit runtime: packed
//!   groups ride real BRAM FIFO storage sized by the planner's budget,
//!   with configurable [`memory_unit::OverflowPolicy`] behaviour.
//! * [`faults`] — deterministic fault injection: seeded bit flips in the
//!   packed payload / BitMap / NBits words and forced FIFO faults, always
//!   surfaced as typed errors or bounded reconstruction error.
//! * [`stats`] — small-sample statistics (mean, 90 % confidence intervals)
//!   used by the evaluation harness.
//!
//! # Quick start
//!
//! ```
//! use sw_core::config::ArchConfig;
//! use sw_core::compressed::CompressedSlidingWindow;
//! use sw_core::kernels::BoxFilter;
//! use sw_image::ImageU8;
//!
//! let img = ImageU8::from_fn(64, 64, |x, y| ((x * 3 + y * 5) % 256) as u8);
//! let cfg = ArchConfig::new(8, img.width()).with_threshold(0); // lossless
//! let mut arch = CompressedSlidingWindow::new(cfg);
//! let out = arch.process_frame(&img, &BoxFilter::new(8))?;
//! assert_eq!(out.image.width(), 64 - 8 + 1);
//! // Lossless mode is bit-exact with the traditional architecture:
//! assert_eq!(out.stats.overflow_events, 0);
//! # Ok::<(), sw_core::error::SwError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adaptive;
pub mod analysis;
pub mod arch;
pub mod codec;
pub mod color;
pub mod compressed;
pub mod compressed_ml;
pub mod config;
pub mod digest;
pub mod error;
pub mod faults;
pub mod kernels;
pub mod memory_unit;
pub mod pipeline;
pub mod planner;
pub mod reference;
pub mod rtl;
pub mod shard;
pub mod stats;
pub mod traditional;
pub mod window;

pub use arch::{build_arch, FrameOutput, FrameStats, SlidingWindow, SlidingWindowArch};
pub use codec::{LineCodec, LineCodecKind};
pub use config::{ArchConfig, ArchConfigBuilder, CoeffMode, NBitsGranularity, ThresholdPolicy};
pub use digest::{image_digest, stats_digest};
pub use error::SwError;
pub use faults::{FaultInjector, FaultSite, FaultSpec};
pub use memory_unit::{MemoryUnit, MemoryUnitConfig, OverflowPolicy};
pub use sw_bitstream::HotPath;
pub use window::{ActiveWindow, WindowView};

/// Pixel type (8-bit grayscale, as in the paper).
pub type Pixel = u8;

/// Coefficient type shared with the substrate crates.
pub type Coeff = sw_wavelet::Coeff;
