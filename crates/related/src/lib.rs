//! Related-work baselines (paper Section II).
//!
//! The paper positions its architecture against three families of prior
//! work. This crate implements each of them so the comparison is
//! reproducible rather than rhetorical:
//!
//! * [`block_buffer`] — the block-buffering method of Yu & Leeser
//!   (refs \[5], \[6]): read a `B × B` block (B > N), process all interior
//!   windows, double-buffer the next block. Saves on-chip memory but "its
//!   average number of off-chip accesses is greater than 1 pixel per window
//!   operation".
//! * [`segmented`] — the segment-partitioning method of Dong et al.
//!   (ref \[7]): process the image in vertical segments so line buffers span
//!   a segment instead of the full width. Saves BRAMs, but columns shared
//!   by adjacent segments are fetched twice and "it requires pixels to be
//!   in off-chip memory" (no camera streaming).
//! * [`locoi_encode`] and friends — a LOCO-I / JPEG-LS-style lossless
//!   compressor (ref \[8]): MED prediction plus adaptive Golomb–Rice
//!   coding, re-exported from [`sw_bitstream::locoi`] (where `sw-core`'s
//!   line-codec layer can wrap it without a dependency cycle). The paper's
//!   first contribution claims its much simpler scheme "gives comparable
//!   compression ratios to the state of the art compression algorithms";
//!   these let the benchmark harness check that claim on the same dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block_buffer;
pub mod segmented;

pub use block_buffer::BlockBufferPlan;
pub use segmented::SegmentedPlan;
pub use sw_bitstream::locoi::{locoi_compressed_bits, locoi_decode, locoi_encode};
