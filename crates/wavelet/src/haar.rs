//! 1-D integer Haar (S-transform) lifting steps.
//!
//! The paper's forward equations (Section V-A):
//!
//! ```text
//! H(i,j) = X(i,j) − X(i,j+1)          (high-pass / detail)
//! L(i,j) = X(i,j+1) + H(i,j)/2        (low-pass / approximation)
//! ```
//!
//! where `/2` is an arithmetic shift right by one. Each hardware "1D block"
//! (Figure 5) is one adder, one subtractor and one shifter; this module is the
//! cycle-free functional model of that block.

use crate::{Coeff, Pixel};

/// Forward 1-D integer Haar transform of one sample pair.
///
/// Returns `(l, h)` where `h = x0 − x1` and `l = x1 + (h >> 1)`.
///
/// `l` equals `floor((x0 + x1) / 2)` — the integer average — and `h` the
/// difference, which is the classic S-transform. The pair `(l, h)` determines
/// `(x0, x1)` exactly; see [`haar_inv_pair`].
///
/// # Examples
///
/// ```
/// use sw_wavelet::{haar_fwd_pair, haar_inv_pair};
/// let (l, h) = haar_fwd_pair(13, 6);
/// assert_eq!((l, h), (9, 7));
/// assert_eq!(haar_inv_pair(l, h), (13, 6));
/// ```
#[inline]
pub fn haar_fwd_pair(x0: Coeff, x1: Coeff) -> (Coeff, Coeff) {
    let h = x0 - x1;
    let l = x1 + (h >> 1);
    (l, h)
}

/// Inverse 1-D integer Haar transform of one `(l, h)` coefficient pair.
///
/// Implements the algebraically correct inverse of [`haar_fwd_pair`]:
/// `x1 = l − (h >> 1)`, `x0 = x1 + h`.
///
/// Note: the paper's printed equations (3)–(4) have a sign error (they negate
/// the output); this is the corrected S-transform inverse. The hardware cost
/// is identical (one adder, one subtractor, one shifter — Figure 10).
#[inline]
pub fn haar_inv_pair(l: Coeff, h: Coeff) -> (Coeff, Coeff) {
    let x1 = l - (h >> 1);
    let x0 = x1 + h;
    (x0, x1)
}

/// Stateless helper for transforming whole slices with the 1-D Haar lifting.
///
/// Useful for the multi-level ablation and for building the separable 2-D
/// transform on full images. The sliding-window hardware itself uses the
/// column-pair formulation in [`crate::haar2d`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HaarLifter;

impl HaarLifter {
    /// Forward transform of `input` (even length) into `low`/`high` halves.
    ///
    /// `input[2k], input[2k+1]` become `low[k]`, `high[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` is odd or the output slices are shorter than
    /// `input.len() / 2`.
    pub fn forward(&self, input: &[Coeff], low: &mut [Coeff], high: &mut [Coeff]) {
        assert!(
            input.len().is_multiple_of(2),
            "Haar forward needs an even length"
        );
        let n = input.len() / 2;
        assert!(low.len() >= n && high.len() >= n, "output slices too short");
        for (k, pair) in input.chunks_exact(2).enumerate() {
            let (l, h) = haar_fwd_pair(pair[0], pair[1]);
            low[k] = l;
            high[k] = h;
        }
    }

    /// Inverse of [`HaarLifter::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `output.len() != 2 * low.len()` or `low.len() != high.len()`.
    pub fn inverse(&self, low: &[Coeff], high: &[Coeff], output: &mut [Coeff]) {
        assert_eq!(low.len(), high.len(), "sub-band length mismatch");
        assert_eq!(output.len(), 2 * low.len(), "output length mismatch");
        for (k, (&l, &h)) in low.iter().zip(high.iter()).enumerate() {
            let (x0, x1) = haar_inv_pair(l, h);
            output[2 * k] = x0;
            output[2 * k + 1] = x1;
        }
    }

    /// In-place forward transform: `data` is replaced by
    /// `[low half | high half]`.
    pub fn forward_in_place(&self, data: &mut [Coeff], scratch: &mut Vec<Coeff>) {
        assert!(
            data.len().is_multiple_of(2),
            "Haar forward needs an even length"
        );
        let n = data.len() / 2;
        scratch.clear();
        scratch.resize(data.len(), 0);
        let (low, high) = scratch.split_at_mut(n);
        self.forward(data, low, high);
        data.copy_from_slice(scratch);
    }

    /// In-place inverse transform: `data` holds `[low half | high half]` and
    /// is replaced by the reconstructed samples.
    pub fn inverse_in_place(&self, data: &mut [Coeff], scratch: &mut Vec<Coeff>) {
        assert!(
            data.len().is_multiple_of(2),
            "Haar inverse needs an even length"
        );
        let n = data.len() / 2;
        scratch.clear();
        scratch.resize(data.len(), 0);
        {
            let (low, high) = data.split_at(n);
            self.inverse(low, high, scratch);
        }
        data.copy_from_slice(scratch);
    }
}

/// Largest magnitude a stage-`stage` Haar coefficient can take for unsigned
/// `pixel_bits`-bit input: `(2^pixel_bits − 1) · 2^(stage−1)`.
///
/// Stage 1 is the difference of two pixels (`H ∈ ±(2^p − 1)`); each further
/// cascaded stage differences two previous-stage coefficients and at most
/// doubles the span. The low-pass output is the floor average and never
/// leaves the input range.
pub const fn stage_max_abs(pixel_bits: u32, stage: u32) -> i64 {
    (((1u64 << pixel_bits) - 1) << (stage - 1)) as i64
}

/// Widest unsigned pixel the 16-bit [`Coeff`] word can carry through two
/// cascaded lifting stages without overflow.
///
/// Requires `stage_max_abs(p, 2) = 2·(2^p − 1) ≤ 2^15 − 1`, i.e.
/// `p ≤ 16 − 2 = 14`.
pub const fn max_pixel_bits() -> u32 {
    Coeff::BITS - 2
}

/// Largest magnitude a first-stage Haar coefficient can take for `u8` input.
///
/// `H = x0 − x1 ∈ [−255, 255]`, `L ∈ [0, 255]`.
pub const STAGE1_MAX_ABS: Coeff = stage_max_abs(Pixel::BITS, 1) as Coeff;

/// Largest magnitude a second-stage (2-D) Haar coefficient can take for `u8`
/// input: `HH = H0 − H1 ∈ [−510, 510]`.
pub const STAGE2_MAX_ABS: Coeff = stage_max_abs(Pixel::BITS, 2) as Coeff;

// Compile-time headroom proof: two cascaded stages on full-range pixels stay
// strictly inside the narrow coefficient word, as `max_pixel_bits` promises.
const _: () = assert!(Pixel::BITS <= max_pixel_bits());
const _: () = assert!(STAGE2_MAX_ABS as i64 <= Coeff::MAX as i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure2_values_roundtrip() {
        // Coefficients quoted in the paper's Figure 2 walk-through:
        // HL column (13, 12, -9, 7) must survive a round trip.
        for &(a, b) in &[(13, 12), (-9, 7), (0, 0), (255, 0), (0, 255), (255, 255)] {
            let (l, h) = haar_fwd_pair(a, b);
            assert_eq!(haar_inv_pair(l, h), (a, b), "pair ({a},{b})");
        }
    }

    #[test]
    fn low_is_floor_average() {
        for a in -64..64 {
            for b in -64..64 {
                let (l, _) = haar_fwd_pair(a, b);
                // floor((a+b)/2) with arithmetic-shift semantics
                let expect = (a as i32 + b as i32).div_euclid(2) as Coeff;
                assert_eq!(l, expect, "avg of ({a},{b})");
            }
        }
    }

    #[test]
    fn high_is_difference() {
        assert_eq!(haar_fwd_pair(200, 55).1, 145);
        assert_eq!(haar_fwd_pair(55, 200).1, -145);
    }

    #[test]
    fn u8_range_bounds_hold() {
        let mut max_l: Coeff = Coeff::MIN;
        let mut min_l: Coeff = Coeff::MAX;
        let mut max_abs_h: Coeff = 0;
        for a in 0..=255 {
            for b in 0..=255 {
                let (l, h) = haar_fwd_pair(a, b);
                max_l = max_l.max(l);
                min_l = min_l.min(l);
                max_abs_h = max_abs_h.max(h.abs());
            }
        }
        assert_eq!((min_l, max_l), (0, 255));
        assert_eq!(max_abs_h, STAGE1_MAX_ABS);
    }

    #[test]
    fn slice_roundtrip() {
        let lifter = HaarLifter;
        let input: Vec<Coeff> = (0..64).map(|i| (i * 37 % 256) - 128).collect();
        let mut low = vec![0; 32];
        let mut high = vec![0; 32];
        lifter.forward(&input, &mut low, &mut high);
        let mut out = vec![0; 64];
        lifter.inverse(&low, &high, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn in_place_matches_out_of_place() {
        let lifter = HaarLifter;
        let input: Vec<Coeff> = (0..32).map(|i| (i * i) as Coeff % 251 - 125).collect();
        let mut data = input.clone();
        let mut scratch = Vec::new();
        lifter.forward_in_place(&mut data, &mut scratch);

        let mut low = vec![0; 16];
        let mut high = vec![0; 16];
        lifter.forward(&input, &mut low, &mut high);
        assert_eq!(&data[..16], &low[..]);
        assert_eq!(&data[16..], &high[..]);

        lifter.inverse_in_place(&mut data, &mut scratch);
        assert_eq!(data, input);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_length_panics() {
        HaarLifter.forward(&[1, 2, 3], &mut [0; 2], &mut [0; 2]);
    }

    #[test]
    fn derived_bounds_match_historical_literals() {
        assert_eq!(STAGE1_MAX_ABS, 255);
        assert_eq!(STAGE2_MAX_ABS, 510);
        assert_eq!(max_pixel_bits(), 14);
    }

    /// Property test: at the widest pixel the coefficient word admits
    /// ([`max_pixel_bits`]), two cascaded lifting stages never overflow —
    /// every add/sub is checked, and the outputs stay inside the
    /// [`stage_max_abs`] envelopes the constants are derived from.
    #[test]
    fn lifting_never_overflows_at_the_widest_pixel() {
        let p = max_pixel_bits();
        let pix_max = stage_max_abs(p, 1);
        // Exact corners plus a deterministic xorshift sample of the pixel
        // range.
        let mut inputs = vec![0, 1, pix_max / 2, pix_max - 1, pix_max];
        let mut s = 0x5eed_0000_0000_0001u64 ^ u64::from(Coeff::BITS);
        for _ in 0..11 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            inputs.push((s % (pix_max as u64 + 1)) as i64);
        }
        let mut highs = Vec::new();
        for &a in &inputs {
            for &b in &inputs {
                let (x0, x1) = (a as Coeff, b as Coeff);
                let h = x0.checked_sub(x1).expect("stage-1 difference overflowed");
                let l = x1.checked_add(h >> 1).expect("stage-1 average overflowed");
                assert!(i64::from(h).abs() <= stage_max_abs(p, 1), "H({a},{b})");
                assert!((0..=pix_max).contains(&i64::from(l)), "L({a},{b})");
                highs.push(h);
            }
        }
        // The second (2-D) stage differences two first-stage coefficients.
        for &h0 in &highs {
            for &h1 in &highs {
                let hh = h0.checked_sub(h1).expect("stage-2 difference overflowed");
                let lh = h1.checked_add(hh >> 1).expect("stage-2 average overflowed");
                assert!(i64::from(hh).abs() <= stage_max_abs(p, 2));
                assert!(i64::from(lh).abs() <= stage_max_abs(p, 1));
            }
        }
    }
}
