//! u64 bit-sliced (SWAR) lifting kernels — the wide-word twin of the scalar
//! 1-D blocks in [`crate::haar`] and [`crate::legall`].
//!
//! The paper's register model (Figures 5–6) packs coefficients into
//! fixed-width lanes so one hardware word carries several samples. These
//! kernels do the same in software: four 16-bit [`Coeff`] lanes per `u64`,
//! with carry propagation masked at lane boundaries so a single integer
//! add/subtract performs four independent operations.
//!
//! Every kernel is **bit-identical** to its scalar twin under wrapping
//! semantics (and therefore to release-mode scalar code on all inputs, and
//! to debug-mode scalar code on the codec's bounded coefficient domain).
//! The `hot_path_equivalence` test battery and the conformance corpus pin
//! this equivalence.

use crate::Coeff;

/// Per-lane sign-bit mask (bit 15 of every 16-bit lane).
const SIGN_MASK: u64 = 0x8000_8000_8000_8000;
/// Per-lane mask of every bit below the sign bit.
const LOW_MASK: u64 = 0x7fff_7fff_7fff_7fff;
/// The value 1 in every lane.
pub const LANE_ONE: u64 = 0x0001_0001_0001_0001;
/// All ones in lane 0, zero elsewhere (the lane-fold mask).
pub const LANE0_MASK: u64 = 0xffff;

/// Load four consecutive coefficients into one word, lane 0 in bits 0..16.
#[inline]
pub fn load4(s: &[Coeff]) -> u64 {
    (s[0] as u16 as u64)
        | (s[1] as u16 as u64) << 16
        | (s[2] as u16 as u64) << 32
        | (s[3] as u16 as u64) << 48
}

/// Load four even-index coefficients `s[0], s[2], s[4], s[6]`.
#[inline]
fn load4_even(s: &[Coeff]) -> u64 {
    (s[0] as u16 as u64)
        | (s[2] as u16 as u64) << 16
        | (s[4] as u16 as u64) << 32
        | (s[6] as u16 as u64) << 48
}

/// Load four odd-index coefficients `s[1], s[3], s[5], s[7]`.
#[inline]
fn load4_odd(s: &[Coeff]) -> u64 {
    (s[1] as u16 as u64)
        | (s[3] as u16 as u64) << 16
        | (s[5] as u16 as u64) << 32
        | (s[7] as u16 as u64) << 48
}

/// Store four lanes to consecutive coefficients.
#[inline]
fn store4(w: u64, d: &mut [Coeff]) {
    d[0] = w as u16 as Coeff;
    d[1] = (w >> 16) as u16 as Coeff;
    d[2] = (w >> 32) as u16 as Coeff;
    d[3] = (w >> 48) as u16 as Coeff;
}

/// Store four lanes to even-index slots `d[0], d[2], d[4], d[6]`.
#[inline]
fn store4_even(w: u64, d: &mut [Coeff]) {
    d[0] = w as u16 as Coeff;
    d[2] = (w >> 16) as u16 as Coeff;
    d[4] = (w >> 32) as u16 as Coeff;
    d[6] = (w >> 48) as u16 as Coeff;
}

/// Store four lanes to odd-index slots `d[1], d[3], d[5], d[7]`.
#[inline]
fn store4_odd(w: u64, d: &mut [Coeff]) {
    d[1] = w as u16 as Coeff;
    d[3] = (w >> 16) as u16 as Coeff;
    d[5] = (w >> 32) as u16 as Coeff;
    d[7] = (w >> 48) as u16 as Coeff;
}

/// Four independent wrapping 16-bit additions in one word.
///
/// Carries are confined to their lane: the low bits add with the sign
/// bits masked off, then the sign bits are recombined by XOR (a
/// half-adder at the lane's top bit, which is exactly wrapping
/// addition's top bit).
#[inline]
pub fn add16(x: u64, y: u64) -> u64 {
    ((x & LOW_MASK) + (y & LOW_MASK)) ^ ((x ^ y) & SIGN_MASK)
}

/// Four independent wrapping 16-bit subtractions (`x − y`) in one word.
#[inline]
pub fn sub16(x: u64, y: u64) -> u64 {
    ((x | SIGN_MASK) - (y & LOW_MASK)) ^ ((x ^ !y) & SIGN_MASK)
}

/// Four independent per-lane arithmetic shifts right by one (`>> 1` on i16,
/// the paper's divide-by-two).
#[inline]
pub fn asr1(x: u64) -> u64 {
    ((x >> 1) & LOW_MASK) | (x & SIGN_MASK)
}

/// Four independent `floor((a + b) / 2)` on i16 lanes, overflow-free: the
/// exact average always fits in i16 even when `a + b` would not.
#[inline]
pub fn avg_floor16(a: u64, b: u64) -> u64 {
    add16(a & b, asr1(a ^ b))
}

/// Element-wise forward Haar lifting over slices: for every `k`,
/// `(low[k], high[k]) = haar_fwd_pair(x0[k], x1[k])` under wrapping
/// semantics. Four lanes per step, scalar wrapping tail.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn haar_fwd_slices(x0: &[Coeff], x1: &[Coeff], low: &mut [Coeff], high: &mut [Coeff]) {
    let n = x0.len();
    assert!(
        x1.len() == n && low.len() == n && high.len() == n,
        "slice length mismatch"
    );
    let mut k = 0;
    while k + 4 <= n {
        let a = load4(&x0[k..]);
        let b = load4(&x1[k..]);
        let h = sub16(a, b);
        let l = add16(b, asr1(h));
        store4(l, &mut low[k..]);
        store4(h, &mut high[k..]);
        k += 4;
    }
    while k < n {
        let h = x0[k].wrapping_sub(x1[k]);
        low[k] = x1[k].wrapping_add(h >> 1);
        high[k] = h;
        k += 1;
    }
}

/// Element-wise inverse Haar lifting: for every `k`,
/// `(x0[k], x1[k]) = haar_inv_pair(low[k], high[k])` under wrapping
/// semantics — the exact inverse of [`haar_fwd_slices`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn haar_inv_slices(low: &[Coeff], high: &[Coeff], x0: &mut [Coeff], x1: &mut [Coeff]) {
    let n = low.len();
    assert!(
        high.len() == n && x0.len() == n && x1.len() == n,
        "slice length mismatch"
    );
    let mut k = 0;
    while k + 4 <= n {
        let l = load4(&low[k..]);
        let h = load4(&high[k..]);
        let b = sub16(l, asr1(h));
        let a = add16(b, h);
        store4(a, &mut x0[k..]);
        store4(b, &mut x1[k..]);
        k += 4;
    }
    while k < n {
        let b = low[k].wrapping_sub(high[k] >> 1);
        x0[k] = b.wrapping_add(high[k]);
        x1[k] = b;
        k += 1;
    }
}

/// Forward Haar over an interleaved column: pairs `(column[2k],
/// column[2k+1])` become `(low[k], high[k])`. This is the vertical stage of
/// the 2-D transform, with the deinterleave folded into strided lane loads.
///
/// # Panics
///
/// Panics if `column.len()` is odd or the outputs are shorter than
/// `column.len() / 2`.
pub fn haar_fwd_interleaved(column: &[Coeff], low: &mut [Coeff], high: &mut [Coeff]) {
    assert!(
        column.len().is_multiple_of(2),
        "Haar forward needs an even length"
    );
    let n = column.len() / 2;
    assert!(low.len() >= n && high.len() >= n, "output slices too short");
    let mut k = 0;
    while k + 4 <= n {
        let a = load4_even(&column[2 * k..]);
        let b = load4_odd(&column[2 * k..]);
        let h = sub16(a, b);
        let l = add16(b, asr1(h));
        store4(l, &mut low[k..]);
        store4(h, &mut high[k..]);
        k += 4;
    }
    while k < n {
        let h = column[2 * k].wrapping_sub(column[2 * k + 1]);
        low[k] = column[2 * k + 1].wrapping_add(h >> 1);
        high[k] = h;
        k += 1;
    }
}

/// Inverse of [`haar_fwd_interleaved`]: `(low[k], high[k])` reconstruct
/// `(column[2k], column[2k+1])`.
///
/// # Panics
///
/// Panics on length mismatches.
pub fn haar_inv_interleaved(low: &[Coeff], high: &[Coeff], column: &mut [Coeff]) {
    let n = low.len();
    assert_eq!(high.len(), n, "sub-band length mismatch");
    assert_eq!(column.len(), 2 * n, "output length mismatch");
    let mut k = 0;
    while k + 4 <= n {
        let l = load4(&low[k..]);
        let h = load4(&high[k..]);
        let b = sub16(l, asr1(h));
        let a = add16(b, h);
        store4_even(a, &mut column[2 * k..]);
        store4_odd(b, &mut column[2 * k..]);
        k += 4;
    }
    while k < n {
        let b = low[k].wrapping_sub(high[k] >> 1);
        column[2 * k] = b.wrapping_add(high[k]);
        column[2 * k + 1] = b;
        k += 1;
    }
}

/// Bit-sliced forward LeGall 5/3 of an **even-length** signal. Odd lengths
/// delegate to the scalar [`crate::legall::legall53_forward`] (the streaming
/// architecture only ever transforms even window heights).
///
/// The update term `floor((d[k−1] + d[k] + 2) / 4)` decomposes into two
/// overflow-free lane averages: `avg(avg(d[k−1], d[k]), 1)`.
///
/// # Panics
///
/// Panics if `x.len() < 2` or the outputs are too short.
pub fn legall53_fwd_sliced(x: &[Coeff], low: &mut [Coeff], high: &mut [Coeff]) {
    if !x.len().is_multiple_of(2) {
        crate::legall::legall53_forward(x, low, high);
        return;
    }
    assert!(x.len() >= 2, "need length >= 2");
    let hi_n = x.len() / 2;
    assert!(low.len() >= hi_n && high.len() >= hi_n, "outputs too short");
    // Predict step: high[k] = x[2k+1] − floor((x[2k] + x[2k+2]) / 2), the
    // last detail mirroring x[2k+2] → x[2k].
    let mut k = 0;
    // The widest right-neighbour load reads x[2k+8]; valid while k+5 <= hi_n.
    while k + 5 <= hi_n {
        let even = load4_even(&x[2 * k..]);
        let odd = load4_odd(&x[2 * k..]);
        let right = load4_even(&x[2 * k + 2..]);
        store4(sub16(odd, avg_floor16(even, right)), &mut high[k..]);
        k += 4;
    }
    while k < hi_n {
        let left = x[2 * k] as i32;
        let right = if 2 * k + 2 < x.len() {
            x[2 * k + 2] as i32
        } else {
            x[2 * k] as i32
        };
        high[k] = (x[2 * k + 1] as i32).wrapping_sub((left + right) >> 1) as Coeff;
        k += 1;
    }
    // Update step: low[k] = x[2k] + floor((d[k−1] + d[k] + 2) / 4).
    // k = 0 mirrors d[−1] → d[0]; handled scalar so the lane loop can load
    // d[k−1] and d[k] as two contiguous four-lane reads.
    {
        let d0 = high[0] as i32;
        low[0] = (x[0] as i32).wrapping_add((d0 + d0 + 2) >> 2) as Coeff;
    }
    let mut k = 1;
    while k + 4 <= hi_n {
        let even = load4_even(&x[2 * k..]);
        let dm1 = load4(&high[k - 1..]);
        let d = load4(&high[k..]);
        let q = avg_floor16(avg_floor16(dm1, d), LANE_ONE);
        store4(add16(even, q), &mut low[k..]);
        k += 4;
    }
    while k < hi_n {
        let dm1 = high[k - 1] as i32;
        let d = high[k] as i32;
        low[k] = (x[2 * k] as i32).wrapping_add((dm1 + d + 2) >> 2) as Coeff;
        k += 1;
    }
}

/// Bit-sliced inverse LeGall 5/3 for the even-length split
/// (`low.len() == high.len()`); the odd split delegates to the scalar
/// [`crate::legall::legall53_inverse`].
///
/// # Panics
///
/// Panics on length mismatches.
pub fn legall53_inv_sliced(low: &[Coeff], high: &[Coeff], x: &mut [Coeff]) {
    if low.len() != high.len() {
        crate::legall::legall53_inverse(low, high, x);
        return;
    }
    let hi_n = high.len();
    assert!(hi_n >= 1, "need length >= 2");
    assert_eq!(x.len(), 2 * hi_n, "output length mismatch");
    // Undo update: x[2k] = low[k] − floor((d[k−1] + d[k] + 2) / 4).
    {
        let d0 = high[0] as i32;
        x[0] = (low[0] as i32).wrapping_sub((d0 + d0 + 2) >> 2) as Coeff;
    }
    let mut k = 1;
    while k + 4 <= hi_n {
        let lo = load4(&low[k..]);
        let dm1 = load4(&high[k - 1..]);
        let d = load4(&high[k..]);
        let q = avg_floor16(avg_floor16(dm1, d), LANE_ONE);
        store4_even(sub16(lo, q), &mut x[2 * k..]);
        k += 4;
    }
    while k < hi_n {
        let dm1 = high[k - 1] as i32;
        let d = high[k] as i32;
        x[2 * k] = (low[k] as i32).wrapping_sub((dm1 + d + 2) >> 2) as Coeff;
        k += 1;
    }
    // Undo predict: x[2k+1] = high[k] + floor((x[2k] + x[2k+2]) / 2), the
    // last odd sample mirroring x[2k+2] → x[2k].
    let mut k = 0;
    while k + 5 <= hi_n {
        let left = load4_even(&x[2 * k..]);
        let right = load4_even(&x[2 * k + 2..]);
        let h = load4(&high[k..]);
        store4_odd(add16(h, avg_floor16(left, right)), &mut x[2 * k..]);
        k += 4;
    }
    while k < hi_n {
        let left = x[2 * k] as i32;
        let right = if 2 * k + 2 < x.len() {
            x[2 * k + 2] as i32
        } else {
            x[2 * k] as i32
        };
        x[2 * k + 1] = (high[k] as i32).wrapping_add((left + right) >> 1) as Coeff;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::haar_fwd_pair;
    use crate::legall::{legall53_forward, legall53_inverse};

    fn xorshift(state: &mut u32) -> u32 {
        *state ^= *state << 13;
        *state ^= *state >> 17;
        *state ^= *state << 5;
        *state
    }

    #[test]
    fn lane_primitives_match_scalar_wrapping_ops() {
        let mut s = 0x1234_5678_u32;
        for _ in 0..2000 {
            let a: [Coeff; 4] = core::array::from_fn(|_| xorshift(&mut s) as u16 as Coeff);
            let b: [Coeff; 4] = core::array::from_fn(|_| xorshift(&mut s) as u16 as Coeff);
            let wa = load4(&a);
            let wb = load4(&b);
            let mut add = [0 as Coeff; 4];
            let mut sub = [0 as Coeff; 4];
            let mut shr = [0 as Coeff; 4];
            let mut avg = [0 as Coeff; 4];
            store4(add16(wa, wb), &mut add);
            store4(sub16(wa, wb), &mut sub);
            store4(asr1(wa), &mut shr);
            store4(avg_floor16(wa, wb), &mut avg);
            for i in 0..4 {
                assert_eq!(add[i], a[i].wrapping_add(b[i]), "add lane {i}");
                assert_eq!(sub[i], a[i].wrapping_sub(b[i]), "sub lane {i}");
                assert_eq!(shr[i], a[i] >> 1, "asr lane {i}");
                let exact = ((a[i] as i32 + b[i] as i32) >> 1) as Coeff;
                assert_eq!(avg[i], exact, "avg lane {i}: {} {}", a[i], b[i]);
            }
        }
    }

    #[test]
    fn haar_slices_match_scalar_pairs_including_extremes() {
        let mut s = 0xabcd_ef01_u32;
        for len in [0usize, 1, 3, 4, 5, 8, 13, 32] {
            let mut x0: Vec<Coeff> = (0..len).map(|_| xorshift(&mut s) as u16 as Coeff).collect();
            let x1: Vec<Coeff> = (0..len).map(|_| xorshift(&mut s) as u16 as Coeff).collect();
            if len > 2 {
                x0[0] = Coeff::MIN;
                x0[1] = Coeff::MAX;
            }
            let mut low = vec![0; len];
            let mut high = vec![0; len];
            haar_fwd_slices(&x0, &x1, &mut low, &mut high);
            for k in 0..len {
                let h = x0[k].wrapping_sub(x1[k]);
                let l = x1[k].wrapping_add(h >> 1);
                assert_eq!((low[k], high[k]), (l, h), "fwd k={k}");
            }
            let mut r0 = vec![0; len];
            let mut r1 = vec![0; len];
            haar_inv_slices(&low, &high, &mut r0, &mut r1);
            assert_eq!(r0, x0, "inverse x0");
            assert_eq!(r1, x1, "inverse x1");
        }
    }

    #[test]
    fn interleaved_forms_match_pair_walk() {
        let mut s = 0x0bad_cafe_u32;
        for n in [2usize, 4, 6, 8, 10, 16, 64] {
            let col: Vec<Coeff> = (0..n).map(|_| (xorshift(&mut s) % 256) as Coeff).collect();
            let half = n / 2;
            let mut low = vec![0; half];
            let mut high = vec![0; half];
            haar_fwd_interleaved(&col, &mut low, &mut high);
            for k in 0..half {
                assert_eq!(
                    (low[k], high[k]),
                    haar_fwd_pair(col[2 * k], col[2 * k + 1]),
                    "k={k}"
                );
            }
            let mut back = vec![0; n];
            haar_inv_interleaved(&low, &high, &mut back);
            assert_eq!(back, col);
        }
    }

    #[test]
    fn legall_sliced_matches_scalar_on_all_lengths() {
        let mut s = 0x5eed_1337_u32;
        for len in [2usize, 3, 4, 5, 7, 8, 9, 10, 16, 33, 64, 127, 128] {
            let x: Vec<Coeff> = (0..len).map(|_| xorshift(&mut s) as u16 as Coeff).collect();
            let lo_n = len.div_ceil(2);
            let hi_n = len / 2;
            let mut low_s = vec![0; lo_n];
            let mut high_s = vec![0; hi_n];
            legall53_forward(&x, &mut low_s, &mut high_s);
            let mut low_v = vec![0; lo_n];
            let mut high_v = vec![0; hi_n];
            legall53_fwd_sliced(&x, &mut low_v, &mut high_v);
            assert_eq!(low_v, low_s, "low len={len}");
            assert_eq!(high_v, high_s, "high len={len}");

            let mut out_s = vec![0; len];
            legall53_inverse(&low_s, &high_s, &mut out_s);
            let mut out_v = vec![0; len];
            legall53_inv_sliced(&low_v, &high_v, &mut out_v);
            assert_eq!(out_v, out_s, "inverse len={len}");
            assert_eq!(out_v, x, "roundtrip len={len}");
        }
    }

    #[test]
    fn legall_sliced_handles_i16_extremes() {
        for len in [2usize, 8, 16, 18] {
            for pattern in [
                vec![Coeff::MAX; len],
                vec![Coeff::MIN; len],
                (0..len)
                    .map(|i| if i % 2 == 0 { Coeff::MAX } else { Coeff::MIN })
                    .collect::<Vec<_>>(),
            ] {
                let half = len / 2;
                let mut low_s = vec![0; half];
                let mut high_s = vec![0; half];
                legall53_forward(&pattern, &mut low_s, &mut high_s);
                let mut low_v = vec![0; half];
                let mut high_v = vec![0; half];
                legall53_fwd_sliced(&pattern, &mut low_v, &mut high_v);
                assert_eq!((low_v, high_v), (low_s, high_s), "len={len}");
            }
        }
    }
}
