//! Minimum two's-complement width ("NBits") computation.
//!
//! The paper finds, per sub-band column, the minimum number of bits that
//! represents every coefficient of the column in two's complement
//! (Section V-B, Figure 7). This module provides:
//!
//! * [`min_bits`] / [`min_bits_column`] — the arithmetic definition,
//! * [`NBitsCircuit`] — a faithful structural model of the paper's circuit
//!   (per-coefficient XOR of the sign bit against the lower bits, an
//!   OR-reduction across coefficients, then a priority encoder),
//!
//! and tests proving the two agree bit for bit.

use crate::Coeff;
use sw_wavelet::swar::{load4, LANE0_MASK, LANE_ONE};

/// Minimum number of two's-complement bits needed to represent `v`.
///
/// `0` and `−1` need 1 bit; `1` needs 2 bits (`01`); `−6` needs 4 (`1010`);
/// `255` needs 9 (`0_1111_1111`).
///
/// ```
/// use sw_bitstream::min_bits;
/// assert_eq!(min_bits(0), 1);
/// assert_eq!(min_bits(-1), 1);
/// assert_eq!(min_bits(13), 5);   // paper Figure 2: column (13,12,-9,7) -> 5
/// assert_eq!(min_bits(-6), 4);   // paper Figure 7 example
/// assert_eq!(min_bits(255), 9);
/// assert_eq!(min_bits(-510), 10);
/// ```
///
/// For `v ≥ 0` we need the highest '1' plus a sign bit; for `v < 0` the
/// highest '0' of `v` (i.e. highest '1' of `!v`) plus the sign bit — which is
/// exactly one leading-zeros count of the sign-XOR magnitude.
#[inline]
pub fn min_bits(v: Coeff) -> u32 {
    65 - magnitude(v).leading_zeros().min(64)
}

/// Sign-XOR magnitude, zero-extended: `v` for `v ≥ 0`, `!v` for `v < 0` —
/// the XOR stage of the paper's Figure 7 NBits circuit.
#[inline]
fn magnitude(v: Coeff) -> u64 {
    u64::from((if v < 0 { !v } else { v }) as u16)
}

/// Minimum width that represents *every* coefficient in `column`.
///
/// Returns 1 for an empty column (the paper always stores an NBits field, so
/// an all-insignificant column still carries a well-defined width).
#[inline]
pub fn min_bits_column(column: &[Coeff]) -> u32 {
    column.iter().map(|&c| min_bits(c)).max().unwrap_or(1)
}

/// Minimum width over only the *significant* coefficients of a column.
///
/// Insignificant coefficients are not packed, so they must not inflate the
/// column width. Falls back to 1 when nothing is significant.
#[inline]
pub fn min_bits_significant(column: &[Coeff], threshold: Coeff) -> u32 {
    column
        .iter()
        .copied()
        .filter(|&c| crate::is_significant(c, threshold))
        .map(min_bits)
        .max()
        .unwrap_or(1)
}

/// Bit-sliced NBits width scan: the hot-path twin of
/// [`min_bits_significant`], guaranteed to return the identical width.
///
/// Works the way the paper's Figure 7 circuit does, but four 16-bit lanes at
/// a time: each coefficient is mapped to its sign-XOR magnitude
/// (`v ^ (v >> 15)`, exactly the XOR stage of [`NBitsCircuit`]), the
/// magnitudes are OR-reduced across the whole column, and a single leading-
/// zeros count priority-encodes the final width. The threshold filter is
/// folded into the magnitude form: a lane's magnitude participates only when
/// `v != 0 && |v| >= T`.
pub fn min_bits_significant_sliced(column: &[Coeff], threshold: Coeff) -> u32 {
    let or_mag: u64 = if threshold <= 1 {
        // T <= 1 means significance is simply `v != 0`, and mag(0) == 0
        // contributes nothing to an OR-fold — no per-lane masking needed.
        let mut or64 = 0u64;
        let mut chunks = column.chunks_exact(4);
        for lanes in &mut chunks {
            let x = load4(lanes);
            // Per-lane sign mask: lane = all-ones where the coefficient is
            // negative, 0 otherwise; XOR yields the sign-XOR magnitude.
            let sign = ((x >> 15) & LANE_ONE).wrapping_mul(LANE0_MASK);
            or64 |= x ^ sign;
        }
        // Fold the four lanes of the accumulated OR into lane 0.
        let folded = or64 | (or64 >> 32);
        let folded = folded | (folded >> 16);
        let mut or_mag = folded & LANE0_MASK;
        for &v in chunks.remainder() {
            or_mag |= magnitude(v);
        }
        or_mag
    } else {
        // Lossy thresholds need a per-coefficient compare before the
        // OR-fold; the filter must be the scalar `is_significant` itself so
        // the two paths cannot disagree on any input.
        let mut or_mag = 0u64;
        for &v in column {
            if crate::is_significant(v, threshold) {
                or_mag |= magnitude(v);
            }
        }
        or_mag
    };
    // Priority encode: mag(0) == 0 so an all-insignificant column falls back
    // to the architectural minimum width of 1.
    65 - or_mag.leading_zeros().min(64)
}

/// Gate-level model of the paper's "Find Minimum Number of Bits" block
/// (Figure 7), generalised to `width`-bit coefficients.
///
/// Structure, exactly as drawn in the paper:
///
/// 1. per coefficient, `width − 1` two-input XOR gates compare the sign bit
///    against bits `0..width−1`;
/// 2. `width − 1` n-input OR gates combine the XOR outputs across the `n`
///    coefficients of the column;
/// 3. a priority encoder maps the highest asserted OR output at position `p`
///    to `NBits = p + 2` (no asserted output ⇒ `NBits = 1`).
#[derive(Debug, Clone, Copy)]
pub struct NBitsCircuit {
    width: u32,
}

impl NBitsCircuit {
    /// Create a circuit model for `width`-bit two's-complement inputs
    /// (2 ..= 16, the [`Coeff`] word; the paper instantiates `width = 8`).
    pub fn new(width: u32) -> Self {
        assert!((2..=16).contains(&width), "coefficient width out of range");
        Self { width }
    }

    /// Coefficient width the circuit was instantiated for.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The per-coefficient XOR stage: bit `i` of the result is
    /// `sign ^ bit_i(v)` for `i` in `0..width−1`.
    ///
    /// Paper example: `−6 = 0b1111_1010` → `0b000_0101`.
    #[inline]
    pub fn xor_stage(&self, v: Coeff) -> u32 {
        let bits = u32::from(v as u16);
        let low = (1u32 << (self.width - 1)) - 1;
        let sign = (bits >> (self.width - 1)) & 1;
        let sign_mask = if sign == 1 { low } else { 0 };
        (bits & low) ^ sign_mask
    }

    /// Evaluate the full circuit on one column of coefficients.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any coefficient does not fit in the
    /// configured width — the hardware wires simply cannot carry it.
    pub fn evaluate(&self, column: &[Coeff]) -> u32 {
        let mut or_reduce = 0u32;
        for &c in column {
            debug_assert!(
                min_bits(c) <= self.width,
                "coefficient {c} exceeds the {}-bit datapath",
                self.width
            );
            or_reduce |= self.xor_stage(c);
        }
        // Priority encode: highest asserted position p ⇒ p + 2 bits.
        if or_reduce == 0 {
            1
        } else {
            (32 - or_reduce.leading_zeros()) + 1
        }
    }

    /// Number of two-input XOR gates the block instantiates for `n`
    /// coefficients (used by the resource estimator).
    pub fn xor_gate_count(&self, n: usize) -> usize {
        n * (self.width as usize - 1)
    }

    /// Number of OR-gate inputs (an `n`-input OR per bit position).
    pub fn or_gate_inputs(&self, n: usize) -> usize {
        n * (self.width as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure7_worked_example() {
        // X1 = -6, X2 = -2, X3 = 6 — paper says XOR outputs 0000101,
        // 0000001, 0000110, OR output 0000111, minimum bits = 4.
        let circuit = NBitsCircuit::new(8);
        assert_eq!(circuit.xor_stage(-6), 0b0000101);
        assert_eq!(circuit.xor_stage(-2), 0b0000001);
        assert_eq!(circuit.xor_stage(6), 0b0000110);
        assert_eq!(circuit.evaluate(&[-6, -2, 6]), 4);
    }

    #[test]
    fn paper_figure2_hl_column() {
        // HL column (13, 12, -9, 7) needs 5 bits (01101, 01100, 10111, 00111).
        assert_eq!(min_bits_column(&[13, 12, -9, 7]), 5);
        assert_eq!(NBitsCircuit::new(8).evaluate(&[13, 12, -9, 7]), 5);
    }

    #[test]
    fn min_bits_boundary_values() {
        // Positive boundaries: 2^(b-1) - 1 is the largest b-bit value.
        for b in 2..15u32 {
            let max_pos = (1 << (b - 1)) - 1;
            let min_neg = -(1 << (b - 1));
            assert_eq!(min_bits(max_pos as Coeff), b, "max positive for {b}");
            assert_eq!(min_bits(min_neg as Coeff), b, "min negative for {b}");
            assert_eq!(min_bits((max_pos + 1) as Coeff), b + 1);
            assert_eq!(min_bits((min_neg - 1) as Coeff), b + 1);
        }
    }

    #[test]
    fn circuit_matches_arithmetic_for_all_8bit_values() {
        let circuit = NBitsCircuit::new(8);
        for v in -128..=127 {
            assert_eq!(circuit.evaluate(&[v]), min_bits(v), "v = {v}");
        }
    }

    #[test]
    fn circuit_matches_arithmetic_for_all_10bit_values() {
        let circuit = NBitsCircuit::new(10);
        for v in -512..=511 {
            assert_eq!(circuit.evaluate(&[v]), min_bits(v), "v = {v}");
        }
    }

    #[test]
    fn circuit_column_is_max_of_singles() {
        let circuit = NBitsCircuit::new(12);
        let col = [0, -1, 100, -300, 7];
        let expect = col.iter().map(|&v| min_bits(v)).max().unwrap();
        assert_eq!(circuit.evaluate(&col), expect);
        assert_eq!(min_bits_column(&col), expect);
    }

    #[test]
    fn significant_only_width_ignores_thresholded() {
        // 100 dominates, but with T=101 only 3 remains significant... no:
        // |3| < 101 too, so nothing is significant and the width is 1.
        assert_eq!(min_bits_significant(&[100, 3], 101), 1);
        // With T=4, 100 is significant (7+1 bits... 100 = 0b0110_0100 -> 8).
        assert_eq!(min_bits_significant(&[100, 3], 4), 8);
        // Zeros never count.
        assert_eq!(min_bits_significant(&[0, 0, 0], 0), 1);
    }

    #[test]
    fn gate_counts_scale_linearly() {
        let c = NBitsCircuit::new(8);
        assert_eq!(c.xor_gate_count(4), 28);
        assert_eq!(c.xor_gate_count(64), 448);
    }

    #[test]
    fn empty_column_defaults_to_one_bit() {
        assert_eq!(min_bits_column(&[]), 1);
        assert_eq!(NBitsCircuit::new(8).evaluate(&[]), 1);
        assert_eq!(min_bits_significant_sliced(&[], 0), 1);
        assert_eq!(min_bits_significant_sliced(&[], 9), 1);
    }

    #[test]
    fn sliced_scan_matches_scalar_exhaustively_for_single_lanes() {
        // Every i16 value except i16::MIN (whose `abs()` in the scalar
        // significance filter is a debug panic by design) at a spread of
        // thresholds, in every lane position of the 4-wide word.
        for v in (-32767i32..=32767).step_by(257).map(|v| v as Coeff) {
            for t in [0, 1, 2, 4, 100, 32767] {
                for lane in 0..4 {
                    let mut col = [0 as Coeff; 7];
                    col[lane] = v;
                    assert_eq!(
                        min_bits_significant_sliced(&col, t),
                        min_bits_significant(&col, t),
                        "v={v} t={t} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliced_scan_handles_i16_min_without_widening() {
        // i16::MIN's magnitude is !v = 32767 → 16 bits; the sliced scan must
        // agree with min_bits even though the scalar *significance* filter
        // cannot be asked about it in debug builds. Lossless path only.
        assert_eq!(min_bits(Coeff::MIN), 16);
        assert_eq!(min_bits_significant_sliced(&[Coeff::MIN], 0), 16);
        assert_eq!(min_bits_significant_sliced(&[Coeff::MIN, 1, -1, 3], 1), 16);
    }

    #[test]
    fn sliced_scan_matches_scalar_on_mixed_columns() {
        // Deterministic pseudo-random columns across odd lengths (tail path)
        // and all threshold regimes.
        let mut state = 0x9e37_79b9_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for len in [1usize, 2, 3, 4, 5, 7, 8, 12, 33, 64] {
            for t in [0 as Coeff, 1, 2, 8, 500] {
                let col: Vec<Coeff> = (0..len)
                    .map(|_| {
                        let v = (next() & 0xffff) as u16 as Coeff;
                        if v == Coeff::MIN {
                            0
                        } else {
                            v
                        }
                    })
                    .collect();
                assert_eq!(
                    min_bits_significant_sliced(&col, t),
                    min_bits_significant(&col, t),
                    "len={len} t={t} col={col:?}"
                );
            }
        }
    }
}
