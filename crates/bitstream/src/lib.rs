//! Bit-level compression units of the modified sliding window architecture.
//!
//! This crate models Sections IV-B/IV-C and V-B/V-C of the paper:
//!
//! * [`nbits`] — the "find minimum number of bits" logic (paper Figure 7),
//!   both as plain arithmetic and as a faithful gate-level model of the
//!   sign-XOR / OR-reduce / priority-encode circuit.
//! * [`writer`] — general LSB-first [`writer::BitWriter`] / [`writer::BitReader`]
//!   used as the software-reference serialization.
//! * [`packer`] — the Bit Packing unit register model (paper Figure 6:
//!   `CBits`, `Yout_Current`, `Yout_Reg`, the threshold comparator and the
//!   write-enable logic).
//! * [`unpacker`] — the Bit Unpacking unit register model (paper Figures 8–9:
//!   `CBits`, the 16-bit `Yout_rem` remainder register, sign extension).
//! * [`bitmap`] — the per-coefficient significance bitmap.
//! * [`mod@column`] — the column codec tying it all together: encode one sub-band
//!   column into `(NBits, BitMap, packed payload)` and decode it back. This
//!   is the unit of work the architecture performs every clock cycle.
//! * [`telemetry`] — per-codec observability: packed byte/bit counters, the
//!   NBits width distribution and bitmap density, feeding `sw-telemetry`.
//! * [`locoi`] — a LOCO-I / JPEG-LS-style lossless predictive coder
//!   (paper ref \[8]), the comparison baseline the paper rejects on
//!   hardware grounds; it lives here so `sw-core`'s pluggable line-codec
//!   layer can wrap it without a dependency cycle through `sw-related`.
//!
//! # Bit order
//!
//! All packing is **LSB-first**: the least-significant bit of the first
//! coefficient lands in bit 0 of the first byte. The hardware models and the
//! software-reference [`writer`] agree on this convention, and the test suite
//! cross-checks them bit for bit.
//!
//! # Significance rule
//!
//! A coefficient is *significant* iff it is non-zero **and** its magnitude is
//! at least the threshold `T`. This merges the paper's two statements ("the
//! bits of the non-zero coefficients, only, are packed" and "if the absolute
//! value of the coefficient is less than the threshold it is replaced with
//! zero"): with `T = 0` (lossless) exact zeros still pack zero payload bits,
//! which is what the paper's Figure 2 BitMap example shows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod column;
pub mod digest;
pub mod hot_path;
pub mod locoi;
pub mod nbits;
pub mod packer;
pub mod telemetry;
pub mod unpacker;
pub mod writer;

pub use bitmap::Bitmap;
pub use column::{
    column_cost, decode_column, decode_column_checked, decode_column_checked_into,
    decode_column_sliced_into, encode_column, encode_column_into, encode_column_sliced_into,
    ColumnCost, EncodedColumn,
};
pub use digest::{fnv1a64, Fnv64};
pub use hot_path::HotPath;
pub use locoi::{locoi_compressed_bits, locoi_decode, locoi_encode, locoi_try_decode};
pub use nbits::{min_bits, min_bits_column, min_bits_significant_sliced, NBitsCircuit};
pub use packer::{pack_columns, pack_columns_sliced, BitPackingUnit};
pub use telemetry::CodecTelemetry;
pub use unpacker::BitUnpackingUnit;
pub use writer::{BitReader, BitWriter};

/// Coefficient type shared with `sw-wavelet`.
pub type Coeff = sw_wavelet::Coeff;

/// Width of the NBits management field in bits (paper Section IV-C: "4 bits").
///
/// The field stores `nbits − 1`, so 4 bits cover widths 1..=16 — enough for
/// the 10-bit worst case of exact Haar coefficients (see `DESIGN.md`).
pub const NBITS_FIELD_BITS: u32 = 4;

/// Returns true when a coefficient survives thresholding and is packed.
///
/// See the crate-level "Significance rule".
#[inline]
pub fn is_significant(c: Coeff, threshold: Coeff) -> bool {
    c != 0 && c.abs() >= threshold
}

/// Apply the threshold: insignificant coefficients become zero.
#[inline]
pub fn apply_threshold(c: Coeff, threshold: Coeff) -> Coeff {
    if is_significant(c, threshold) {
        c
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significance_merges_zero_and_threshold_rules() {
        // Lossless: zeros are insignificant, everything else significant.
        assert!(!is_significant(0, 0));
        assert!(is_significant(1, 0));
        assert!(is_significant(-1, 0));
        // Lossy T=4: |c| < 4 dropped.
        assert!(!is_significant(3, 4));
        assert!(!is_significant(-3, 4));
        assert!(is_significant(4, 4));
        assert!(is_significant(-4, 4));
    }

    #[test]
    fn apply_threshold_zeroes_insignificant() {
        assert_eq!(apply_threshold(3, 4), 0);
        assert_eq!(apply_threshold(-5, 4), -5);
        assert_eq!(apply_threshold(0, 0), 0);
    }
}
