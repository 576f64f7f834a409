//! LSB-first bit-granular serialization.
//!
//! [`BitWriter`] and [`BitReader`] are the software-reference implementation
//! of the packed-payload format. The hardware models in [`crate::packer`] and
//! [`crate::unpacker`] must produce/consume byte streams identical to these —
//! the test suites cross-check them.

use crate::Coeff;

/// Accumulates variable-width fields LSB-first into a byte vector.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits staged in `acc` but not yet flushed to `bytes` (0..8).
    acc: u32,
    acc_bits: u32,
    total_bits: u64,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of bits written so far (flushed or staged).
    #[inline]
    pub fn bit_len(&self) -> u64 {
        self.total_bits
    }

    /// Append the low `nbits` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 32`.
    pub fn write_bits(&mut self, value: u32, nbits: u32) {
        assert!(nbits <= 32, "at most 32 bits per write");
        if nbits == 0 {
            return;
        }
        let masked = if nbits == 32 {
            value
        } else {
            value & ((1u32 << nbits) - 1)
        };
        let mut v = masked as u64;
        let mut remaining = nbits;
        self.total_bits += nbits as u64;
        // Stage into the accumulator, flushing whole bytes as they fill.
        while remaining > 0 {
            let take = (8 - self.acc_bits).min(remaining);
            self.acc |= ((v & ((1 << take) - 1)) as u32) << self.acc_bits;
            self.acc_bits += take;
            v >>= take;
            remaining -= take;
            if self.acc_bits == 8 {
                self.bytes.push(self.acc as u8);
                self.acc = 0;
                self.acc_bits = 0;
            }
        }
    }

    /// Append a signed coefficient using `nbits` bits of two's complement.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `value` does not fit in `nbits` bits.
    pub fn write_signed(&mut self, value: Coeff, nbits: u32) {
        debug_assert!(
            crate::min_bits(value) <= nbits,
            "{value} does not fit in {nbits} bits"
        );
        self.write_bits(u32::from(value as u16), nbits);
    }

    /// Finish, padding the final partial byte with zeros.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            self.bytes.push(self.acc as u8);
        }
        self.bytes
    }

    /// Bytes flushed so far, excluding any staged partial byte.
    pub fn flushed(&self) -> &[u8] {
        &self.bytes
    }
}

/// Reads variable-width fields LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit position within `bytes`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Reader over `bytes` starting at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bits consumed so far.
    #[inline]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Bits remaining in the underlying buffer.
    #[inline]
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
    }

    /// Read `nbits` bits (LSB first). Returns `None` once the buffer is
    /// exhausted.
    pub fn read_bits(&mut self, nbits: u32) -> Option<u32> {
        assert!(nbits <= 32, "at most 32 bits per read");
        if nbits == 0 {
            return Some(0);
        }
        if self.remaining_bits() < nbits as u64 {
            return None;
        }
        let mut out: u64 = 0;
        let mut got = 0u32;
        while got < nbits {
            let byte = self.bytes[(self.pos / 8) as usize] as u64;
            let bit_off = (self.pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(nbits - got);
            let chunk = (byte >> bit_off) & ((1 << take) - 1);
            out |= chunk << got;
            got += take;
            self.pos += take as u64;
        }
        Some(out as u32)
    }

    /// Read an `nbits`-wide two's-complement value and sign-extend it.
    pub fn read_signed(&mut self, nbits: u32) -> Option<Coeff> {
        let raw = self.read_bits(nbits)?;
        Some(sign_extend(raw, nbits))
    }
}

/// Sign-extend the low `nbits` bits of `raw` into a [`Coeff`].
///
/// This is the operation the paper's Bit Unpacking block performs after
/// extracting "the least significant NBits" (Section IV-C).
#[inline]
pub fn sign_extend(raw: u32, nbits: u32) -> Coeff {
    debug_assert!((1..=16).contains(&nbits));
    let shift = 32 - nbits;
    (((raw << shift) as i32) >> shift) as Coeff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let fields: &[(u32, u32)] = &[(0b1, 1), (0b1011, 4), (0x3ff, 10), (0, 3), (0xffff, 16)];
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        assert_eq!(w.bit_len(), 34);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 5); // ceil(34 / 8)
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            assert_eq!(r.read_bits(n), Some(v), "field ({v},{n})");
        }
    }

    #[test]
    fn signed_roundtrip_all_widths() {
        for nbits in 1..=16u32 {
            let lo = -(1i32 << (nbits - 1));
            let hi = (1i32 << (nbits - 1)) - 1;
            let mut w = BitWriter::new();
            let vals: Vec<Coeff> = (lo..=hi)
                .step_by(((hi - lo) as usize / 17).max(1))
                .map(|v| v as Coeff)
                .collect();
            for &v in &vals {
                w.write_signed(v, nbits);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &vals {
                assert_eq!(r.read_signed(nbits), Some(v), "width {nbits}");
            }
        }
    }

    #[test]
    fn sign_extend_matches_paper_examples() {
        // Paper Figure 2: -9 packs as 10111 in 5 bits.
        assert_eq!(sign_extend(0b10111, 5), -9);
        assert_eq!(sign_extend(0b01101, 5), 13);
        assert_eq!(sign_extend(0b00111, 5), 7);
        assert_eq!(sign_extend(0b1, 1), -1);
        assert_eq!(sign_extend(0b0, 1), 0);
    }

    #[test]
    fn lsb_first_layout_is_stable() {
        // 3 bits of 0b101 then 5 bits of 0b11111 -> byte 0b11111_101.
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11111, 5);
        assert_eq!(w.into_bytes(), vec![0b1111_1101]);
    }

    #[test]
    fn reader_stops_at_end() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8), Some(0xff));
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn zero_width_reads_and_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(0xdead, 0);
        assert_eq!(w.bit_len(), 0);
        let bytes = w.into_bytes();
        assert!(bytes.is_empty());
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0), Some(0));
    }

    #[test]
    fn flushed_excludes_partial_byte() {
        let mut w = BitWriter::new();
        w.write_bits(0xabc, 12);
        assert_eq!(w.flushed().len(), 1);
        assert_eq!(w.bit_len(), 12);
    }
}
