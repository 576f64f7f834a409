//! Pluggable line-buffer codecs — the compression axis of the architecture.
//!
//! The paper's core idea is to swap raw line buffers for compressed ones;
//! *which* codec sits between the window and the memory unit is the design
//! axis the paper itself explores (it rejects LeGall 5/3 and predictive
//! schemes like JPEG-LS in favour of single-level Haar, Section IV-C).
//! This module makes that axis first-class: a [`LineCodec`] turns the
//! columns evicted from the active window into an encoded *group* riding
//! the memory unit, and back. The generic datapath in [`crate::arch`] is
//! identical for every codec; only the group width and the bit accounting
//! differ.
//!
//! | codec | group | sub-band layout | management bits / column |
//! |---|---|---|---|
//! | [`RawCodec`] | 1 | none (raw rows 1..N) | 0 |
//! | [`HaarIwtCodec`] | 2 | LL, LH, HL, HH | 8 + N |
//! | [`HaarTwoLevelCodec`] | 4 | LL2..HH2 + 6 level-1 details | 10 + N |
//! | [`LeGall53Codec`] | 1 | low, high | 8 + N |
//! | [`LocoIPredictiveCodec`] | 1 | none (predictive bytes) | 16 |
//!
//! A codec is free to be lossy under a threshold ([`HaarIwtCodec`],
//! [`HaarTwoLevelCodec`], [`LeGall53Codec`]) or inherently lossless
//! ([`RawCodec`], [`LocoIPredictiveCodec`], which ignore the threshold).

use crate::config::ArchConfig;
use crate::faults::FaultSite;
use crate::{Coeff, Pixel};
use sw_bitstream::locoi::{locoi_encode, locoi_try_decode};
#[cfg(any(test, feature = "oracle"))]
use sw_bitstream::{decode_column_checked, encode_column};
use sw_bitstream::{
    decode_column_sliced_into, encode_column_sliced_into, CodecTelemetry, EncodedColumn, Sample,
    NBITS_FIELD_BITS,
};
use sw_image::ImageU8;
use sw_telemetry::TelemetryHandle;
use sw_wavelet::haar2d::{ColumnPairInverse, ColumnPairTransformer};
use sw_wavelet::swar::{legall53_fwd_sliced, legall53_inv_sliced};
use sw_wavelet::SubBand;
#[cfg(any(test, feature = "oracle"))]
use sw_wavelet::{
    haar2d::SubbandColumn,
    legall::{legall53_forward, legall53_inverse},
};

/// The codecs a sliding window architecture can buffer its lines through.
///
/// This is the value-level selector ([`ArchConfig::codec`] and the CLI
/// `--codec` flag); the type-level side is the [`LineCodec`] impls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineCodecKind {
    /// No compression: the traditional raw line buffers (Section III).
    Raw,
    /// Single-level Haar IWT + threshold + bit packing — the paper's codec.
    #[default]
    Haar,
    /// Two-level Haar: the LL band recurses once more (the extension the
    /// paper declined, Section IV-C).
    Haar2,
    /// LeGall 5/3 reversible integer wavelet (the JPEG 2000 lossless
    /// filter the paper rejects on hardware grounds).
    Legall,
    /// LOCO-I / JPEG-LS-style predictive coder (paper ref \[8]);
    /// inherently lossless — the threshold is ignored.
    Locoi,
}

impl LineCodecKind {
    /// Every codec, in CLI order.
    pub const ALL: [LineCodecKind; 5] = [
        LineCodecKind::Raw,
        LineCodecKind::Haar,
        LineCodecKind::Haar2,
        LineCodecKind::Legall,
        LineCodecKind::Locoi,
    ];

    /// The CLI name (`raw`, `haar`, `haar2`, `legall`, `locoi`).
    pub fn name(self) -> &'static str {
        match self {
            LineCodecKind::Raw => "raw",
            LineCodecKind::Haar => "haar",
            LineCodecKind::Haar2 => "haar2",
            LineCodecKind::Legall => "legall",
            LineCodecKind::Locoi => "locoi",
        }
    }

    /// Parse a CLI name; inverse of [`LineCodecKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Raw image columns per encoded group (the codec's batching factor).
    pub fn group_width(self) -> usize {
        match self {
            LineCodecKind::Haar => 2,
            LineCodecKind::Haar2 => 4,
            _ => 1,
        }
    }

    /// Whether the threshold has any effect (predictive/raw codecs are
    /// inherently lossless and ignore it).
    pub fn is_lossy_capable(self) -> bool {
        !matches!(self, LineCodecKind::Raw | LineCodecKind::Locoi)
    }

    /// Whether a cycle-level RTL model of this codec's datapath exists
    /// ([`crate::rtl`]). Only the paper's Haar pipeline has one today; the
    /// conformance RTL matrix iterates this hook so that an RTL model added
    /// for another codec is picked up by the differential tests without
    /// touching them.
    pub fn has_rtl_model(self) -> bool {
        matches!(self, LineCodecKind::Haar)
    }

    /// Static management-bit requirement of the buffered span.
    ///
    /// * `raw` stores nothing beyond the pixels;
    /// * `haar` needs the paper's `2×4` NBits + `N` BitMap bits per column;
    /// * `haar2` amortizes ten NBits fields over each 4-column quad plus
    ///   the BitMap (`10 + N` per column);
    /// * `legall` packs two sub-band columns per image column (`8 + N`);
    /// * `locoi` stores one 16-bit record-length field per column.
    pub fn management_bits(self, cfg: &ArchConfig) -> u64 {
        let cols = cfg.fifo_depth() as u64;
        let n = cfg.window as u64;
        match self {
            LineCodecKind::Raw => 0,
            LineCodecKind::Haar => cfg.management_bits(),
            LineCodecKind::Haar2 => cols * (10 + n),
            LineCodecKind::Legall => cols * (8 + n),
            LineCodecKind::Locoi => cols * 16,
        }
    }

    /// Raw bits the same buffered span occupies uncompressed — the
    /// denominator of the paper's Equation 5.
    ///
    /// The traditional architecture physically stores only `N − 1` rows
    /// per column (the bottom row streams straight in), so `raw` spans
    /// `(W−N)×(N−1)×pixel_bits`; the compressed architectures recirculate
    /// whole `N`-pixel columns, spanning `(W−N)×N×pixel_bits`.
    pub fn raw_span_bits(self, cfg: &ArchConfig) -> u64 {
        match self {
            LineCodecKind::Raw => cfg.traditional_buffer_bits(),
            _ => cfg.fifo_depth() as u64 * cfg.window as u64 * cfg.pixel_bits as u64,
        }
    }
}

/// One encoded column group plus its cost accounting.
#[derive(Debug, Clone)]
pub struct EncodedGroup<E> {
    /// The codec's opaque encoded form.
    pub data: E,
    /// Payload bits this group occupies in the memory unit.
    pub payload_bits: u64,
    /// Payload bits attributed to `[LL, LH, HL, HH]` (codecs without a
    /// sub-band structure report everything under the first slot).
    pub per_band_bits: [u64; 4],
}

/// A line-buffer codec: encodes groups of raw columns evicted from the
/// active window into the form that rides the memory unit, and decodes
/// them back into raw columns on exit.
///
/// A codec is a pure column transformer — the generic datapath in
/// [`crate::arch::SlidingWindow`] owns all queueing, occupancy accounting,
/// and trace emission. [`LineCodec::encode_group_reuse`] always receives
/// exactly [`LineCodec::group_width`] columns of `cfg.window`
/// coefficients; [`LineCodec::try_decode_group_into`] must return the
/// same number of columns, each `cfg.window` pixels tall.
pub trait LineCodec {
    /// Coefficient word the codec's datapath carries. Every paper codec is
    /// a [`Coeff`] (i16) instance; the integral-image engine instantiates
    /// the wide i32 word, and the generic datapath in
    /// [`crate::arch::SlidingWindow`] sizes its staging buffers and bit
    /// accounting from `Sample::BITS` instead of a fixed constant.
    type Sample: Sample;

    /// Opaque encoded form of one column group.
    type Encoded;

    /// Build the codec for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's geometry cannot support the codec
    /// (each implementation documents its requirement).
    fn new(cfg: &ArchConfig) -> Self
    where
        Self: Sized;

    /// The value-level selector this codec implements.
    fn kind(&self) -> LineCodecKind;

    /// Raw columns per encoded group.
    fn group_width(&self) -> usize {
        self.kind().group_width()
    }

    /// Encode one group of raw columns (as coefficients) with full cost
    /// accounting, optionally reusing the buffers of a retired encoded
    /// record (one that already made its round trip through the memory
    /// unit). Codecs with a sliced hot path overwrite the recycled record
    /// in place instead of allocating a fresh one.
    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Self::Sample>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded>;

    /// Decode a group back into raw pixel columns, in eviction order, into
    /// a caller-provided container whose column buffers are reused. The
    /// codec's consistency guards run: a corrupted encoding (bit-flipped
    /// NBits/BitMap/payload) either trips a guard (`Err`) or decodes to
    /// bounded wrong pixels — never a panic.
    ///
    /// # Errors
    ///
    /// The guard that tripped; on error the contents of `out` are
    /// unspecified.
    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String>;

    /// Flip one deterministic bit of the encoded form (fault injection;
    /// see [`crate::faults`]). The default is a no-op for codecs without
    /// a mutable encoded surface.
    fn corrupt(&self, _enc: &mut Self::Encoded, _site: FaultSite, _bit: u64) {}

    /// Clear any internal state (frame boundary).
    fn reset(&mut self) {}

    /// Attach per-codec telemetry under `prefix` (e.g. `stage.s0`).
    fn bind_telemetry(&mut self, _telemetry: &TelemetryHandle, _prefix: &str) {}

    /// Publish the telemetry recorded since the last flush. The datapath
    /// calls this at the end of every row and before it drops the codec.
    fn flush_telemetry(&mut self) {}
}

/// Flip one bit of an [`EncodedColumn`] at the requested fault site.
///
/// NBits upsets flip a bit of the 4-bit management *field* (which stores
/// `nbits − 1`), exactly as a BRAM bit flip would, so the corrupted width
/// stays in the representable 1..=16 range — it is the payload-length
/// consistency guard, not a range check, that detects it.
fn flip_in_column(col: &mut EncodedColumn, site: FaultSite, bit: u64) {
    match site {
        FaultSite::Payload if !col.payload.is_empty() => {
            let pos = (bit % (col.payload.len() as u64 * 8)) as usize;
            col.payload[pos / 8] ^= 1 << (pos % 8);
        }
        // An empty payload leaves nothing to hit; the upset lands in the
        // adjacent management word instead.
        FaultSite::Payload | FaultSite::Nbits => {
            let field = col.nbits.wrapping_sub(1) & 0xf;
            col.nbits = (field ^ (1 << (bit % u64::from(NBITS_FIELD_BITS)))) + 1;
        }
        FaultSite::Bitmap if !col.bitmap.is_empty() => {
            let pos = (bit % col.bitmap.len() as u64) as usize;
            col.bitmap.set(pos, !col.bitmap.get(pos));
        }
        _ => {}
    }
}

/// Pick the column a fault lands in: a rotation of `bit`'s high half,
/// skipping payload-free columns for payload flips so the fault has
/// something to hit.
fn pick_column(cols: &[&EncodedColumn], site: FaultSite, bit: u64) -> usize {
    let n = cols.len().max(1);
    let start = ((bit >> 32) as usize) % n;
    if site == FaultSite::Payload {
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| !cols[i].payload.is_empty())
            .unwrap_or(start)
    } else {
        start
    }
}

/// The no-op codec of the traditional architecture: stores the evicted
/// column's rows `1..N` verbatim (row 0 retires; the hardware's `N − 1`
/// line FIFOs never see it).
#[derive(Debug, Clone)]
pub struct RawCodec {
    window: usize,
    pixel_bits: u32,
}

impl LineCodec for RawCodec {
    type Sample = Coeff;
    type Encoded = Vec<Pixel>;

    fn new(cfg: &ArchConfig) -> Self {
        Self {
            window: cfg.window,
            pixel_bits: cfg.pixel_bits,
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Raw
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 1);
        let mut data = recycled.unwrap_or_default();
        data.clear();
        data.extend(cols[0][1..].iter().map(|&c| c.clamp(0, 255) as Pixel));
        let bits = (self.window as u64 - 1) * self.pixel_bits as u64;
        EncodedGroup {
            data,
            payload_bits: bits,
            per_band_bits: [bits, 0, 0, 0],
        }
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        if enc.len() != self.window - 1 {
            return Err(format!(
                "raw record holds {} rows, window needs {}",
                enc.len(),
                self.window - 1
            ));
        }
        // Row 0 retired on eviction; the datapath only reads rows 1..N of
        // a delivered column, so slot 0 is a don't-care.
        out.resize_with(1, Vec::new);
        out[0].clear();
        out[0].push(0);
        out[0].extend_from_slice(enc);
        Ok(())
    }

    fn corrupt(&self, enc: &mut Self::Encoded, _site: FaultSite, bit: u64) {
        // Raw storage has no management structure: every site degrades to
        // a pixel bit flip — corruption is bounded, never detectable.
        if enc.is_empty() {
            return;
        }
        let pos = (bit % (enc.len() as u64 * 8)) as usize;
        enc[pos / 8] ^= 1 << (pos % 8);
    }
}

/// The paper's codec: single-level integer Haar over column pairs,
/// details thresholded and clamped per [`crate::config::CoeffMode`], each
/// sub-band column bit-packed via `sw-bitstream` (NBits + BitMap +
/// payload).
#[derive(Debug, Clone)]
pub struct HaarIwtCodec {
    cfg: ArchConfig,
    fwd: ColumnPairTransformer,
    inv: ColumnPairInverse,
    codec: CodecTelemetry,
    /// Sliced-path scratch: clamped detail coefficients.
    clamp: Vec<Coeff>,
    /// Sliced-path scratch: decoded sub-band columns `[LL, LH, HL, HH]`.
    bands: [Vec<Coeff>; 4],
}

/// The scalar reference twin of the Haar codec's sliced kernels: the
/// differential oracles run it against the product path.
#[cfg(any(test, feature = "oracle"))]
impl HaarIwtCodec {
    fn enc(&self, half: &[Coeff], band: SubBand) -> EncodedColumn {
        let t_band = self.cfg.policy.threshold_for(band, self.cfg.threshold);
        if band.is_detail() {
            // The configured datapath width saturates detail coefficients
            // (LL fits any mode: it stays in pixel range).
            let clamped: Vec<Coeff> = half
                .iter()
                .map(|&c| self.cfg.coeff_mode.clamp_detail(c))
                .collect();
            encode_column(&clamped, t_band)
        } else {
            encode_column(half, t_band)
        }
    }

    fn encode_group_scalar(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<[EncodedColumn; 4]> {
        let none = self.fwd.push_column(&cols[0]);
        debug_assert!(none.is_none());
        let Some(pair) = self.fwd.push_column(&cols[1]) else {
            unreachable!("second column completes the pair")
        };
        let encoded = [
            self.enc(pair.even.first_half(), SubBand::LL),
            self.enc(pair.even.second_half(), SubBand::LH),
            self.enc(pair.odd.first_half(), SubBand::HL),
            self.enc(pair.odd.second_half(), SubBand::HH),
        ];
        let mut per_band = [0u64; 4];
        for (slot, e) in per_band.iter_mut().zip(&encoded) {
            *slot = e.payload_bits;
            self.codec.record_encoded(e);
        }
        EncodedGroup {
            payload_bits: per_band.iter().sum(),
            per_band_bits: per_band,
            data: encoded,
        }
    }

    fn decode_group_scalar(&mut self, enc: &[EncodedColumn; 4]) -> Result<Vec<Vec<Pixel>>, String> {
        for e in enc {
            self.codec.record_decoded(e);
        }
        let ll = decode_column_checked(&enc[0])?;
        let lh = decode_column_checked(&enc[1])?;
        let hl = decode_column_checked(&enc[2])?;
        let hh = decode_column_checked(&enc[3])?;
        let even = SubbandColumn {
            bands: (SubBand::LL, SubBand::LH),
            coeffs: ll.into_iter().chain(lh).collect(),
        };
        let odd = SubbandColumn {
            bands: (SubBand::HL, SubBand::HH),
            coeffs: hl.into_iter().chain(hh).collect(),
        };
        debug_assert!(!self.inv.has_pending());
        let none = self.inv.push_column(even);
        debug_assert!(none.is_none());
        let Some((c0, c1)) = self.inv.push_column(odd) else {
            unreachable!("pair reconstructs two columns")
        };
        let clamp = |v: Coeff| v.clamp(0, 255) as Pixel;
        Ok(vec![
            c0.into_iter().map(clamp).collect(),
            c1.into_iter().map(clamp).collect(),
        ])
    }
}

impl HaarIwtCodec {
    /// Encodes one sub-band half into `out` through the recycled clamp
    /// scratch, free of per-call allocation.
    fn enc_sliced(
        cfg: &ArchConfig,
        clamp: &mut Vec<Coeff>,
        half: &[Coeff],
        band: SubBand,
        out: &mut EncodedColumn,
    ) {
        let t_band = cfg.policy.threshold_for(band, cfg.threshold);
        if band.is_detail() && cfg.coeff_mode != crate::config::CoeffMode::Exact {
            clamp.clear();
            clamp.extend(half.iter().map(|&c| cfg.coeff_mode.clamp_detail(c)));
            encode_column_sliced_into(clamp, t_band, out);
        } else {
            encode_column_sliced_into(half, t_band, out);
        }
    }
}

impl LineCodec for HaarIwtCodec {
    type Sample = Coeff;
    /// `[LL, LH, HL, HH]` of one column pair.
    type Encoded = [EncodedColumn; 4];

    fn new(cfg: &ArchConfig) -> Self {
        assert!(
            cfg.width >= cfg.window + 2,
            "compressed architecture needs width >= window + 2"
        );
        Self {
            cfg: *cfg,
            fwd: ColumnPairTransformer::new(cfg.window),
            inv: ColumnPairInverse::new(cfg.window),
            codec: CodecTelemetry::noop(),
            clamp: Vec::new(),
            bands: Default::default(),
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Haar
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 2);
        #[cfg(any(test, feature = "oracle"))]
        if self.cfg.scalar_reference {
            return self.encode_group_scalar(cols);
        }
        let none = self.fwd.push_column_sliced(&cols[0]);
        debug_assert!(none.is_none());
        let Some(pair) = self.fwd.push_column_sliced(&cols[1]) else {
            unreachable!("second column completes the pair")
        };
        let mut encoded = recycled.unwrap_or_default();
        let halves = [
            (pair.even.first_half(), SubBand::LL),
            (pair.even.second_half(), SubBand::LH),
            (pair.odd.first_half(), SubBand::HL),
            (pair.odd.second_half(), SubBand::HH),
        ];
        for ((half, band), out) in halves.into_iter().zip(encoded.iter_mut()) {
            Self::enc_sliced(&self.cfg, &mut self.clamp, half, band, out);
        }
        let mut per_band = [0u64; 4];
        for (slot, e) in per_band.iter_mut().zip(&encoded) {
            *slot = e.payload_bits;
            self.codec.record_encoded(e);
        }
        EncodedGroup {
            payload_bits: per_band.iter().sum(),
            per_band_bits: per_band,
            data: encoded,
        }
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        #[cfg(any(test, feature = "oracle"))]
        if self.cfg.scalar_reference {
            *out = self.decode_group_scalar(enc)?;
            return Ok(());
        }
        for e in enc {
            self.codec.record_decoded(e);
        }
        for (e, buf) in enc.iter().zip(self.bands.iter_mut()) {
            decode_column_sliced_into(e, buf)?;
        }
        let [ll, lh, hl, hh] = &self.bands;
        let (c0, c1) = self.inv.push_quad_sliced(ll, lh, hl, hh);
        out.resize_with(2, Vec::new);
        let clamp = |&v: &Coeff| v.clamp(0, 255) as Pixel;
        out[0].clear();
        out[0].extend(c0.iter().map(clamp));
        out[1].clear();
        out[1].extend(c1.iter().map(clamp));
        Ok(())
    }

    fn corrupt(&self, enc: &mut Self::Encoded, site: FaultSite, bit: u64) {
        let idx = pick_column(&[&enc[0], &enc[1], &enc[2], &enc[3]], site, bit);
        flip_in_column(&mut enc[idx], site, bit);
    }

    fn reset(&mut self) {
        self.fwd.reset();
        self.inv.reset();
    }

    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, prefix: &str) {
        self.codec = CodecTelemetry::attach(telemetry, prefix);
    }

    fn flush_telemetry(&mut self) {
        self.codec.flush();
    }
}

/// Two-level Haar: the LL₁ column stream recurses through a second
/// transformer, so every four image columns complete a quad of six
/// level-1 detail columns plus four level-2 sub-band columns.
///
/// Matching the original two-level architecture, detail coefficients are
/// *not* clamped through [`crate::config::CoeffMode`] (the two-level
/// datapath is modelled wide).
#[derive(Debug, Clone)]
pub struct HaarTwoLevelCodec {
    cfg: ArchConfig,
    l1: ColumnPairTransformer,
    l2: ColumnPairTransformer,
    inv1: ColumnPairInverse,
    inv2: ColumnPairInverse,
    codec: CodecTelemetry,
    /// Sliced-path scratch: the two level-1 LL halves of the quad
    /// (copied out so the level-1 transformer can be reused in between).
    ll_pair: (Vec<Coeff>, Vec<Coeff>),
    /// Sliced-path scratch: decoded sub-band columns (level-2 quad, then
    /// reused per level-1 pair).
    dec_bands: [Vec<Coeff>; 4],
    /// Sliced-path scratch: reconstructed level-1 LL columns.
    dec_ll: (Vec<Coeff>, Vec<Coeff>),
}

/// Level-1 detail columns plus level-2 sub-bands of one quad (see
/// [`HaarTwoLevelCodec`]'s `Encoded`).
type Haar2Encoded = ([EncodedColumn; 6], [EncodedColumn; 4]);

/// The scalar reference twin of the two-level codec's sliced kernels.
#[cfg(any(test, feature = "oracle"))]
impl HaarTwoLevelCodec {
    fn enc(&self, coeffs: &[Coeff], band: SubBand) -> EncodedColumn {
        let t = self.cfg.policy.threshold_for(band, self.cfg.threshold);
        encode_column(coeffs, t)
    }

    fn encode_group_scalar(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<Haar2Encoded> {
        let none = self.l1.push_column(&cols[0]);
        debug_assert!(none.is_none());
        let Some(pair_a) = self.l1.push_column(&cols[1]) else {
            unreachable!("first level-1 pair")
        };
        let none = self.l1.push_column(&cols[2]);
        debug_assert!(none.is_none());
        let Some(pair_b) = self.l1.push_column(&cols[3]) else {
            unreachable!("second level-1 pair")
        };

        let l1 = [
            self.enc(pair_a.even.second_half(), SubBand::LH),
            self.enc(pair_a.odd.first_half(), SubBand::HL),
            self.enc(pair_a.odd.second_half(), SubBand::HH),
            self.enc(pair_b.even.second_half(), SubBand::LH),
            self.enc(pair_b.odd.first_half(), SubBand::HL),
            self.enc(pair_b.odd.second_half(), SubBand::HH),
        ];
        let none = self.l2.push_column(pair_a.even.first_half());
        debug_assert!(none.is_none());
        let Some(pair2) = self.l2.push_column(pair_b.even.first_half()) else {
            unreachable!("level-2 pair")
        };
        let l2 = [
            self.enc(pair2.even.first_half(), SubBand::LL),
            self.enc(pair2.even.second_half(), SubBand::LH),
            self.enc(pair2.odd.first_half(), SubBand::HL),
            self.enc(pair2.odd.second_half(), SubBand::HH),
        ];

        // Per-band attribution: level-2 columns land in their own band;
        // level-1 details fold into the matching detail band.
        let mut per_band = [0u64; 4];
        for (i, e) in l2.iter().enumerate() {
            per_band[i] += e.payload_bits;
        }
        for (e, band) in l1.iter().zip([1usize, 2, 3, 1, 2, 3]) {
            per_band[band] += e.payload_bits;
        }
        for e in l1.iter().chain(&l2) {
            self.codec.record_encoded(e);
        }
        EncodedGroup {
            payload_bits: per_band.iter().sum(),
            per_band_bits: per_band,
            data: (l1, l2),
        }
    }

    fn decode_group_scalar(&mut self, enc: &Haar2Encoded) -> Result<Vec<Vec<Pixel>>, String> {
        let (l1, l2) = enc;
        for e in l1.iter().chain(l2.iter()) {
            self.codec.record_decoded(e);
        }
        // Level-2 inverse: recover LL1(c0) and LL1(c2).
        let even2 = SubbandColumn {
            bands: (SubBand::LL, SubBand::LH),
            coeffs: decode_column_checked(&l2[0])?
                .into_iter()
                .chain(decode_column_checked(&l2[1])?)
                .collect(),
        };
        let odd2 = SubbandColumn {
            bands: (SubBand::HL, SubBand::HH),
            coeffs: decode_column_checked(&l2[2])?
                .into_iter()
                .chain(decode_column_checked(&l2[3])?)
                .collect(),
        };
        debug_assert!(!self.inv2.has_pending());
        let none = self.inv2.push_column(even2);
        debug_assert!(none.is_none());
        let Some((ll1_c0, ll1_c2)) = self.inv2.push_column(odd2) else {
            unreachable!("level-2 pair")
        };

        // Level-1 inverse for (c0, c1) and (c2, c3).
        let mut raws = Vec::with_capacity(4);
        for (ll1, lh_idx, hl_idx, hh_idx) in [(ll1_c0, 0usize, 1, 2), (ll1_c2, 3, 4, 5)] {
            let even1 = SubbandColumn {
                bands: (SubBand::LL, SubBand::LH),
                coeffs: ll1
                    .into_iter()
                    .chain(decode_column_checked(&l1[lh_idx])?)
                    .collect(),
            };
            let odd1 = SubbandColumn {
                bands: (SubBand::HL, SubBand::HH),
                coeffs: decode_column_checked(&l1[hl_idx])?
                    .into_iter()
                    .chain(decode_column_checked(&l1[hh_idx])?)
                    .collect(),
            };
            debug_assert!(!self.inv1.has_pending());
            let none = self.inv1.push_column(even1);
            debug_assert!(none.is_none());
            let Some((a, b)) = self.inv1.push_column(odd1) else {
                unreachable!("level-1 pair")
            };
            let clamp = |v: Coeff| v.clamp(0, 255) as Pixel;
            raws.push(a.into_iter().map(clamp).collect::<Vec<Pixel>>());
            raws.push(b.into_iter().map(clamp).collect::<Vec<Pixel>>());
        }
        Ok(raws)
    }
}

impl HaarTwoLevelCodec {
    fn enc_sliced(cfg: &ArchConfig, coeffs: &[Coeff], band: SubBand, out: &mut EncodedColumn) {
        let t = cfg.policy.threshold_for(band, cfg.threshold);
        encode_column_sliced_into(coeffs, t, out);
    }
}

impl LineCodec for HaarTwoLevelCodec {
    type Sample = Coeff;
    /// Level-1 detail columns `[LH1(c0), HL1(c1), HH1(c1), LH1(c2),
    /// HL1(c3), HH1(c3)]` plus level-2 `[LL2, LH2, HL2, HH2]`.
    type Encoded = Haar2Encoded;

    fn new(cfg: &ArchConfig) -> Self {
        assert!(
            cfg.window.is_multiple_of(4) && cfg.window >= 4,
            "two-level decomposition needs a window divisible by 4"
        );
        assert!(
            cfg.width >= cfg.window + 4,
            "two-level architecture needs width >= window + 4"
        );
        Self {
            cfg: *cfg,
            l1: ColumnPairTransformer::new(cfg.window),
            l2: ColumnPairTransformer::new(cfg.window / 2),
            inv1: ColumnPairInverse::new(cfg.window),
            inv2: ColumnPairInverse::new(cfg.window / 2),
            codec: CodecTelemetry::noop(),
            ll_pair: Default::default(),
            dec_bands: Default::default(),
            dec_ll: Default::default(),
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Haar2
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 4);
        #[cfg(any(test, feature = "oracle"))]
        if self.cfg.scalar_reference {
            return self.encode_group_scalar(cols);
        }
        let (mut l1e, mut l2e) = recycled.unwrap_or_default();
        // First level-1 pair: encode its detail columns immediately and
        // stash the LL half, freeing the transformer's output for the
        // second pair.
        let none = self.l1.push_column_sliced(&cols[0]);
        debug_assert!(none.is_none());
        let Some(pair_a) = self.l1.push_column_sliced(&cols[1]) else {
            unreachable!("first level-1 pair")
        };
        Self::enc_sliced(
            &self.cfg,
            pair_a.even.second_half(),
            SubBand::LH,
            &mut l1e[0],
        );
        Self::enc_sliced(&self.cfg, pair_a.odd.first_half(), SubBand::HL, &mut l1e[1]);
        Self::enc_sliced(
            &self.cfg,
            pair_a.odd.second_half(),
            SubBand::HH,
            &mut l1e[2],
        );
        self.ll_pair.0.clear();
        self.ll_pair.0.extend_from_slice(pair_a.even.first_half());

        let none = self.l1.push_column_sliced(&cols[2]);
        debug_assert!(none.is_none());
        let Some(pair_b) = self.l1.push_column_sliced(&cols[3]) else {
            unreachable!("second level-1 pair")
        };
        Self::enc_sliced(
            &self.cfg,
            pair_b.even.second_half(),
            SubBand::LH,
            &mut l1e[3],
        );
        Self::enc_sliced(&self.cfg, pair_b.odd.first_half(), SubBand::HL, &mut l1e[4]);
        Self::enc_sliced(
            &self.cfg,
            pair_b.odd.second_half(),
            SubBand::HH,
            &mut l1e[5],
        );
        self.ll_pair.1.clear();
        self.ll_pair.1.extend_from_slice(pair_b.even.first_half());

        let none = self.l2.push_column_sliced(&self.ll_pair.0);
        debug_assert!(none.is_none());
        let Some(pair2) = self.l2.push_column_sliced(&self.ll_pair.1) else {
            unreachable!("level-2 pair")
        };
        Self::enc_sliced(&self.cfg, pair2.even.first_half(), SubBand::LL, &mut l2e[0]);
        Self::enc_sliced(
            &self.cfg,
            pair2.even.second_half(),
            SubBand::LH,
            &mut l2e[1],
        );
        Self::enc_sliced(&self.cfg, pair2.odd.first_half(), SubBand::HL, &mut l2e[2]);
        Self::enc_sliced(&self.cfg, pair2.odd.second_half(), SubBand::HH, &mut l2e[3]);

        let mut per_band = [0u64; 4];
        for (i, e) in l2e.iter().enumerate() {
            per_band[i] += e.payload_bits;
        }
        for (e, band) in l1e.iter().zip([1usize, 2, 3, 1, 2, 3]) {
            per_band[band] += e.payload_bits;
        }
        for e in l1e.iter().chain(&l2e) {
            self.codec.record_encoded(e);
        }
        EncodedGroup {
            payload_bits: per_band.iter().sum(),
            per_band_bits: per_band,
            data: (l1e, l2e),
        }
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        #[cfg(any(test, feature = "oracle"))]
        if self.cfg.scalar_reference {
            *out = self.decode_group_scalar(enc)?;
            return Ok(());
        }
        let (l1, l2) = enc;
        for e in l1.iter().chain(l2.iter()) {
            self.codec.record_decoded(e);
        }
        // Level-2 inverse: recover LL1(c0) and LL1(c2).
        for (e, buf) in l2.iter().zip(self.dec_bands.iter_mut()) {
            decode_column_sliced_into(e, buf)?;
        }
        {
            let [b0, b1, b2, b3] = &self.dec_bands;
            let (a, b) = self.inv2.push_quad_sliced(b0, b1, b2, b3);
            self.dec_ll.0.clear();
            self.dec_ll.0.extend_from_slice(a);
            self.dec_ll.1.clear();
            self.dec_ll.1.extend_from_slice(b);
        }
        // Level-1 inverse for (c0, c1) and (c2, c3), reusing the band
        // scratch for each pair's three detail columns.
        out.resize_with(4, Vec::new);
        for (pair_idx, (lh_i, hl_i, hh_i)) in [(0usize, (0usize, 1, 2)), (1, (3, 4, 5))] {
            decode_column_sliced_into(&l1[lh_i], &mut self.dec_bands[0])?;
            decode_column_sliced_into(&l1[hl_i], &mut self.dec_bands[1])?;
            decode_column_sliced_into(&l1[hh_i], &mut self.dec_bands[2])?;
            let ll1 = if pair_idx == 0 {
                &self.dec_ll.0
            } else {
                &self.dec_ll.1
            };
            let (a, b) = self.inv1.push_quad_sliced(
                ll1,
                &self.dec_bands[0],
                &self.dec_bands[1],
                &self.dec_bands[2],
            );
            let clamp = |&v: &Coeff| v.clamp(0, 255) as Pixel;
            let o = 2 * pair_idx;
            out[o].clear();
            out[o].extend(a.iter().map(clamp));
            out[o + 1].clear();
            out[o + 1].extend(b.iter().map(clamp));
        }
        Ok(())
    }

    fn corrupt(&self, enc: &mut Self::Encoded, site: FaultSite, bit: u64) {
        let (l1, l2) = enc;
        let refs: Vec<&EncodedColumn> = l1.iter().chain(l2.iter()).collect();
        let idx = pick_column(&refs, site, bit);
        let col = if idx < 6 {
            &mut l1[idx]
        } else {
            &mut l2[idx - 6]
        };
        flip_in_column(col, site, bit);
    }

    fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.inv1.reset();
        self.inv2.reset();
    }

    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, prefix: &str) {
        self.codec = CodecTelemetry::attach(telemetry, prefix);
    }

    fn flush_telemetry(&mut self) {
        self.codec.flush();
    }
}

/// LeGall 5/3 over single columns: each evicted column splits into a
/// low/high sub-band pair, thresholded like the Haar bands (low band maps
/// to LL — spared under `DetailsOnly` — and high to LH) and bit-packed
/// with the same NBits + BitMap scheme.
#[derive(Debug, Clone)]
pub struct LeGall53Codec {
    cfg: ArchConfig,
    low: Vec<Coeff>,
    high: Vec<Coeff>,
    scratch: Vec<Coeff>,
    codec: CodecTelemetry,
    /// Sliced-path scratch: decoded sub-band columns.
    dec_low: Vec<Coeff>,
    dec_high: Vec<Coeff>,
}

impl LeGall53Codec {
    /// Clamp the high band to the datapath width and return the
    /// `(low, high)` band thresholds.
    fn clamp_high(&mut self) -> (Coeff, Coeff) {
        let t_low = self
            .cfg
            .policy
            .threshold_for(SubBand::LL, self.cfg.threshold);
        let t_high = self
            .cfg
            .policy
            .threshold_for(SubBand::LH, self.cfg.threshold);
        for c in &mut self.high {
            *c = self.cfg.coeff_mode.clamp_detail(*c);
        }
        (t_low, t_high)
    }

    fn finish_group(&mut self, encoded: [EncodedColumn; 2]) -> EncodedGroup<[EncodedColumn; 2]> {
        for e in &encoded {
            self.codec.record_encoded(e);
        }
        let per_band = [encoded[0].payload_bits, encoded[1].payload_bits, 0, 0];
        EncodedGroup {
            payload_bits: per_band.iter().sum(),
            per_band_bits: per_band,
            data: encoded,
        }
    }
}

/// The scalar reference twin of the LeGall codec's sliced kernels.
#[cfg(any(test, feature = "oracle"))]
impl LeGall53Codec {
    fn encode_group_scalar(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<[EncodedColumn; 2]> {
        legall53_forward(&cols[0], &mut self.low, &mut self.high);
        let (t_low, t_high) = self.clamp_high();
        let encoded = [
            encode_column(&self.low, t_low),
            encode_column(&self.high, t_high),
        ];
        self.finish_group(encoded)
    }

    fn decode_group_scalar(&mut self, enc: &[EncodedColumn; 2]) -> Result<Vec<Vec<Pixel>>, String> {
        for e in enc {
            self.codec.record_decoded(e);
        }
        let low = decode_column_checked(&enc[0])?;
        let high = decode_column_checked(&enc[1])?;
        legall53_inverse(&low, &high, &mut self.scratch);
        Ok(vec![self
            .scratch
            .iter()
            .map(|&v| v.clamp(0, 255) as Pixel)
            .collect()])
    }
}

impl LineCodec for LeGall53Codec {
    type Sample = Coeff;
    /// `[low, high]` of one column.
    type Encoded = [EncodedColumn; 2];

    fn new(cfg: &ArchConfig) -> Self {
        let half = cfg.window / 2;
        Self {
            cfg: *cfg,
            low: vec![0; half],
            high: vec![0; half],
            scratch: vec![0; cfg.window],
            codec: CodecTelemetry::noop(),
            dec_low: Vec::new(),
            dec_high: Vec::new(),
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Legall
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 1);
        #[cfg(any(test, feature = "oracle"))]
        if self.cfg.scalar_reference {
            return self.encode_group_scalar(cols);
        }
        legall53_fwd_sliced(&cols[0], &mut self.low, &mut self.high);
        let mut encoded = recycled.unwrap_or_default();
        let (t_low, t_high) = self.clamp_high();
        encode_column_sliced_into(&self.low, t_low, &mut encoded[0]);
        encode_column_sliced_into(&self.high, t_high, &mut encoded[1]);
        self.finish_group(encoded)
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        #[cfg(any(test, feature = "oracle"))]
        if self.cfg.scalar_reference {
            *out = self.decode_group_scalar(enc)?;
            return Ok(());
        }
        for e in enc {
            self.codec.record_decoded(e);
        }
        decode_column_sliced_into(&enc[0], &mut self.dec_low)?;
        decode_column_sliced_into(&enc[1], &mut self.dec_high)?;
        legall53_inv_sliced(&self.dec_low, &self.dec_high, &mut self.scratch);
        out.resize_with(1, Vec::new);
        out[0].clear();
        out[0].extend(self.scratch.iter().map(|&v| v.clamp(0, 255) as Pixel));
        Ok(())
    }

    fn corrupt(&self, enc: &mut Self::Encoded, site: FaultSite, bit: u64) {
        let idx = pick_column(&[&enc[0], &enc[1]], site, bit);
        flip_in_column(&mut enc[idx], site, bit);
    }

    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, prefix: &str) {
        self.codec = CodecTelemetry::attach(telemetry, prefix);
    }

    fn flush_telemetry(&mut self) {
        self.codec.flush();
    }
}

/// LOCO-I / JPEG-LS-style predictive coder over single columns (MED
/// prediction + context-adaptive Rice codes, see [`sw_bitstream::locoi`]).
///
/// Inherently lossless: the threshold has no effect. Each column is coded
/// as a 1×N image, so the vertical neighbourhood drives the predictor and
/// the per-column context statistics restart — the price of random column
/// retirement from the memory unit.
#[derive(Debug, Clone)]
pub struct LocoIPredictiveCodec {
    window: usize,
}

impl LineCodec for LocoIPredictiveCodec {
    type Sample = Coeff;
    /// The LOCO-I bitstream of one column.
    type Encoded = Vec<u8>;

    fn new(cfg: &ArchConfig) -> Self {
        Self { window: cfg.window }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Locoi
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        _recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 1);
        let col = &cols[0];
        let img = ImageU8::from_fn(1, self.window, |_, y| col[y].clamp(0, 255) as Pixel);
        let data = locoi_encode(&img);
        let bits = data.len() as u64 * 8;
        EncodedGroup {
            data,
            payload_bits: bits,
            per_band_bits: [bits, 0, 0, 0],
        }
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        let img = locoi_try_decode(enc, 1, self.window)?;
        out.resize_with(1, Vec::new);
        out[0].clear();
        out[0].extend_from_slice(img.pixels());
        Ok(())
    }

    fn corrupt(&self, enc: &mut Self::Encoded, _site: FaultSite, bit: u64) {
        // The LOCO-I stream has no separate management fields: every fault
        // site degrades to a bit flip somewhere in the predictive bitstream.
        if enc.is_empty() {
            return;
        }
        let pos = (bit % (enc.len() as u64 * 8)) as usize;
        enc[pos / 8] ^= 1 << (pos % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, w: usize) -> ArchConfig {
        ArchConfig::new(n, w)
    }

    fn column(n: usize, seed: usize) -> Vec<Coeff> {
        (0..n)
            .map(|i| ((i * 37 + seed * 91 + 13) % 256) as Coeff)
            .collect()
    }

    /// Encode one group and decode it straight back.
    fn roundtrip<C: LineCodec<Sample = Coeff>>(
        codec: &mut C,
        cols: &[Vec<Coeff>],
    ) -> (EncodedGroup<C::Encoded>, Vec<Vec<Pixel>>) {
        let eg = codec.encode_group_reuse(cols, None);
        let mut back = Vec::new();
        codec
            .try_decode_group_into(&eg.data, &mut back)
            .expect("an uncorrupted group decodes");
        (eg, back)
    }

    #[test]
    fn kind_parse_roundtrips() {
        for kind in LineCodecKind::ALL {
            assert_eq!(LineCodecKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(LineCodecKind::parse("huffman"), None);
    }

    #[test]
    fn group_widths() {
        assert_eq!(LineCodecKind::Raw.group_width(), 1);
        assert_eq!(LineCodecKind::Haar.group_width(), 2);
        assert_eq!(LineCodecKind::Haar2.group_width(), 4);
        assert_eq!(LineCodecKind::Legall.group_width(), 1);
        assert_eq!(LineCodecKind::Locoi.group_width(), 1);
    }

    #[test]
    fn raw_codec_roundtrips_rows_1_to_n() {
        let c = cfg(8, 64);
        let mut codec = RawCodec::new(&c);
        let col = column(8, 0);
        let (eg, back) = roundtrip(&mut codec, std::slice::from_ref(&col));
        assert_eq!(eg.payload_bits, 7 * 8);
        assert_eq!(back.len(), 1);
        // Rows 1..N round-trip; row 0 is a don't-care (it retired).
        for i in 1..8 {
            assert_eq!(back[0][i] as Coeff, col[i]);
        }
    }

    #[test]
    fn lossless_roundtrip_every_codec() {
        let c = cfg(8, 64);
        let cols: Vec<Vec<Coeff>> = (0..4).map(|i| column(8, i)).collect();
        fn lossless<C: LineCodec<Sample = Coeff>>(c: &ArchConfig, cols: &[Vec<Coeff>]) {
            let mut codec = C::new(c);
            let g = codec.group_width();
            let (_, back) = roundtrip(&mut codec, &cols[..g]);
            assert_eq!(back.len(), g);
            for (orig, got) in cols[..g].iter().zip(&back) {
                let as_pixels: Vec<Pixel> = orig.iter().map(|&v| v as Pixel).collect();
                assert_eq!(&as_pixels, got, "{:?}", codec.kind());
            }
        }
        lossless::<HaarIwtCodec>(&c, &cols);
        lossless::<HaarTwoLevelCodec>(&c, &cols);
        lossless::<LeGall53Codec>(&c, &cols);
        lossless::<LocoIPredictiveCodec>(&c, &cols);
    }

    #[test]
    fn thresholds_shrink_lossy_capable_codecs() {
        let base = cfg(8, 64);
        let cols: Vec<Vec<Coeff>> = (0..4)
            .map(|i| {
                (0..8)
                    .map(|j| (100 + ((i * 13 + j * 7) % 5)) as Coeff)
                    .collect()
            })
            .collect();
        fn bits<C: LineCodec<Sample = Coeff>>(c: &ArchConfig, cols: &[Vec<Coeff>]) -> u64 {
            let mut codec = C::new(c);
            let g = codec.group_width();
            codec.encode_group_reuse(&cols[..g], None).payload_bits
        }
        let lossy = base.with_threshold(6);
        assert!(bits::<HaarIwtCodec>(&lossy, &cols) < bits::<HaarIwtCodec>(&base, &cols));
        assert!(
            bits::<HaarTwoLevelCodec>(&lossy, &cols) <= bits::<HaarTwoLevelCodec>(&base, &cols)
        );
        assert!(bits::<LeGall53Codec>(&lossy, &cols) < bits::<LeGall53Codec>(&base, &cols));
        // Inherently lossless codecs ignore the threshold entirely.
        assert_eq!(
            bits::<LocoIPredictiveCodec>(&lossy, &cols),
            bits::<LocoIPredictiveCodec>(&base, &cols)
        );
        assert_eq!(
            bits::<RawCodec>(&lossy, &cols),
            bits::<RawCodec>(&base, &cols)
        );
    }

    #[test]
    fn management_bits_match_module_table() {
        let c = cfg(8, 64);
        let cols = c.fifo_depth() as u64;
        assert_eq!(LineCodecKind::Raw.management_bits(&c), 0);
        assert_eq!(LineCodecKind::Haar.management_bits(&c), c.management_bits());
        assert_eq!(LineCodecKind::Haar2.management_bits(&c), cols * (10 + 8));
        assert_eq!(LineCodecKind::Legall.management_bits(&c), cols * (8 + 8));
        assert_eq!(LineCodecKind::Locoi.management_bits(&c), cols * 16);
    }

    #[test]
    fn raw_span_matches_architecture_footprint() {
        let c = cfg(8, 64);
        assert_eq!(
            LineCodecKind::Raw.raw_span_bits(&c),
            c.traditional_buffer_bits()
        );
        for kind in [
            LineCodecKind::Haar,
            LineCodecKind::Haar2,
            LineCodecKind::Legall,
            LineCodecKind::Locoi,
        ] {
            assert_eq!(kind.raw_span_bits(&c), (64 - 8) * 8 * 8, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn two_level_rejects_window_6() {
        HaarTwoLevelCodec::new(&cfg(6, 64));
    }
}
