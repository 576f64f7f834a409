//! Architecture configuration.

use crate::codec::LineCodecKind;
use crate::error::SwError;
use crate::Coeff;
use sw_bitstream::NBITS_FIELD_BITS;

/// Which sub-bands the threshold applies to.
///
/// The paper's Figure 2 shows thresholding on detail coefficients; zeroing
/// the LL (approximation) band would corrupt dark image regions far beyond
/// the paper's reported MSEs, so [`ThresholdPolicy::DetailsOnly`] is the
/// default. [`ThresholdPolicy::AllSubbands`] is kept for the ablation
/// benchmark (experiment E18). See `DESIGN.md` §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdPolicy {
    /// Threshold LH / HL / HH only; LL is always kept exactly.
    #[default]
    DetailsOnly,
    /// Threshold every sub-band including LL.
    AllSubbands,
}

impl ThresholdPolicy {
    /// Every policy, in a stable order (CLI help, wire tags, sweeps).
    pub const ALL: [ThresholdPolicy; 2] =
        [ThresholdPolicy::DetailsOnly, ThresholdPolicy::AllSubbands];

    /// Effective threshold for a sub-band under this policy.
    #[inline]
    pub fn threshold_for(self, band: sw_wavelet::SubBand, t: Coeff) -> Coeff {
        match (self, band) {
            (ThresholdPolicy::DetailsOnly, sw_wavelet::SubBand::LL) => 0,
            _ => t,
        }
    }

    /// Stable lowercase name, matching the CLI's `--policy` values.
    pub fn name(self) -> &'static str {
        match self {
            ThresholdPolicy::DetailsOnly => "details",
            ThresholdPolicy::AllSubbands => "all",
        }
    }

    /// Parse a [`ThresholdPolicy::name`] back (the CLI's `--policy` flag).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Granularity at which the NBits field is computed (paper Section IV-C
/// discusses this exact trade-off: "we find the minimum number of bits for
/// each column in each sub-band instead of other options like for each
/// coefficient or for each sub-band").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NBitsGranularity {
    /// One NBits per sub-band column (the paper's choice; 4 mgmt bits per
    /// column per sub-band).
    #[default]
    PerColumn,
    /// One NBits per coefficient (best packing, 4 mgmt bits *per
    /// coefficient*).
    PerCoefficient,
    /// One NBits per sub-band per frame (minimal management, poor packing).
    PerSubband,
}

/// Coefficient datapath width mode.
///
/// The paper's hardware treats coefficients as 8-bit values (sign bit =
/// bit 7, Figure 7), but exact Haar coefficients of 8-bit pixels span
/// ±255 (first stage) and ±510 (HH) — see `DESIGN.md` §3. Two readings:
///
/// * [`CoeffMode::Exact`] (default): `i16` coefficients, NBits 1..=16.
///   Lossless mode is genuinely lossless for any input.
/// * [`CoeffMode::Saturating8`]: detail coefficients saturate to
///   `[-128, 127]` as an 8-bit datapath would. Natural images are rarely
///   affected (details are small); synthetic extremes (checkerboards,
///   inverted edges) visibly clip — the tests quantify both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoeffMode {
    /// Exact integer transform (wide datapath).
    #[default]
    Exact,
    /// Paper-faithful 8-bit detail datapath with saturation.
    Saturating8,
}

impl CoeffMode {
    /// Apply the datapath width to a detail coefficient.
    #[inline]
    pub fn clamp_detail(self, c: crate::Coeff) -> crate::Coeff {
        match self {
            CoeffMode::Exact => c,
            CoeffMode::Saturating8 => c.clamp(-128, 127),
        }
    }
}

/// Full parameter set of one architecture instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchConfig {
    /// Window size `N` (the window is `N × N`). Must be even and ≥ 2.
    pub window: usize,
    /// Image width `W` in pixels. Must satisfy `W > N`.
    pub width: usize,
    /// Threshold `T` (0 = lossless).
    pub threshold: Coeff,
    /// Which sub-bands the threshold applies to.
    pub policy: ThresholdPolicy,
    /// NBits management granularity.
    pub granularity: NBitsGranularity,
    /// Pixel bit depth (the paper uses 8).
    pub pixel_bits: u32,
    /// Coefficient datapath width mode.
    pub coeff_mode: CoeffMode,
    /// Line codec buffering the recirculated rows (the paper's Haar IWT
    /// by default; see [`crate::codec`] for the full matrix).
    pub codec: LineCodecKind,
    /// Run the codecs on the per-coefficient scalar reference kernels
    /// instead of the u64 bit-sliced product path. Only the differential
    /// oracles set it; both must produce bit-identical streams.
    #[cfg(any(test, feature = "oracle"))]
    #[doc(hidden)]
    pub scalar_reference: bool,
}

impl ArchConfig {
    /// Configuration with the paper's defaults (lossless, details-only
    /// thresholding, per-column NBits, 8-bit pixels).
    ///
    /// # Panics
    ///
    /// Panics unless `window` is even, ≥ 2, and `width > window`.
    pub fn new(window: usize, width: usize) -> Self {
        assert!(
            window >= 2 && window.is_multiple_of(2),
            "window must be even and >= 2"
        );
        assert!(width > window, "image width must exceed the window size");
        Self {
            window,
            width,
            threshold: 0,
            policy: ThresholdPolicy::default(),
            granularity: NBitsGranularity::default(),
            pixel_bits: 8,
            coeff_mode: CoeffMode::default(),
            codec: LineCodecKind::default(),
            #[cfg(any(test, feature = "oracle"))]
            scalar_reference: false,
        }
    }

    /// Switch the codecs to the scalar reference kernels (builder style;
    /// differential oracles only).
    #[cfg(any(test, feature = "oracle"))]
    pub fn with_scalar_reference(mut self) -> Self {
        self.scalar_reference = true;
        self
    }

    /// Set the line codec (builder style).
    pub fn with_codec(mut self, codec: LineCodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Set the coefficient datapath mode (builder style).
    pub fn with_coeff_mode(mut self, m: CoeffMode) -> Self {
        self.coeff_mode = m;
        self
    }

    /// Set the threshold (builder style).
    pub fn with_threshold(mut self, t: Coeff) -> Self {
        assert!(t >= 0, "threshold must be non-negative");
        self.threshold = t;
        self
    }

    /// Set the threshold policy (builder style).
    pub fn with_policy(mut self, p: ThresholdPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Set the NBits granularity (builder style).
    pub fn with_granularity(mut self, g: NBitsGranularity) -> Self {
        self.granularity = g;
        self
    }

    /// Whether the configuration is lossless.
    #[inline]
    pub fn is_lossless(&self) -> bool {
        self.threshold == 0
    }

    /// Line-buffer FIFO depth: `W − N` entries per buffered row
    /// (Section III).
    #[inline]
    pub fn fifo_depth(&self) -> usize {
        self.width - self.window
    }

    /// Raw on-chip bits the *traditional* architecture buffers:
    /// `(W − N) × (N − 1) × pixel_bits` (Section III's formula, e.g.
    /// `(512 − 3) × 2 × 8` for the 3×3/512 example).
    #[inline]
    pub fn traditional_buffer_bits(&self) -> u64 {
        (self.fifo_depth() as u64) * (self.window as u64 - 1) * self.pixel_bits as u64
    }

    /// Management bits the *compressed* architecture needs:
    /// `2 × NBits_field × (W − N)` for NBits plus `(W − N) × N` for BitMap
    /// (Section IV-C), with the paper's 4-bit NBits field.
    #[inline]
    pub fn management_bits(&self) -> u64 {
        let cols = self.fifo_depth() as u64;
        2 * u64::from(NBITS_FIELD_BITS) * cols + cols * self.window as u64
    }

    /// Validating builder for checked construction: every constraint
    /// [`ArchConfig::new`] and the codecs would panic on is reported as
    /// [`SwError::Config`] instead.
    ///
    /// ```
    /// use sw_core::config::ArchConfig;
    /// use sw_core::codec::LineCodecKind;
    /// let cfg = ArchConfig::builder(8, 512)
    ///     .codec(LineCodecKind::Haar2)
    ///     .threshold(4)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.window, 8);
    /// assert!(ArchConfig::builder(7, 512).build().is_err());
    /// ```
    pub fn builder(window: usize, width: usize) -> ArchConfigBuilder {
        ArchConfigBuilder {
            window,
            width,
            threshold: 0,
            policy: ThresholdPolicy::default(),
            granularity: NBitsGranularity::default(),
            pixel_bits: 8,
            coeff_mode: CoeffMode::default(),
            codec: LineCodecKind::default(),
        }
    }

    /// Check every constraint the constructors and codecs enforce,
    /// reporting violations as [`SwError::Config`].
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] when the window is odd, zero or too small, the
    /// width leaves no room for the codec's group, the threshold is
    /// negative, or the pixel depth is out of range.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.window < 2 || !self.window.is_multiple_of(2) {
            return Err(SwError::config(format!(
                "window {} must be even and >= 2",
                self.window
            )));
        }
        if self.codec == LineCodecKind::Haar2 && !self.window.is_multiple_of(4) {
            return Err(SwError::config(format!(
                "the two-level codec needs a window divisible by 4, got {}",
                self.window
            )));
        }
        let group = self.codec.group_width();
        if self.width < self.window + group {
            return Err(SwError::config(format!(
                "width {} leaves no room for the {} codec: need at least window {} + group {}",
                self.width,
                self.codec.name(),
                self.window,
                group
            )));
        }
        if self.threshold < 0 {
            return Err(SwError::config(format!(
                "threshold {} must be non-negative",
                self.threshold
            )));
        }
        if self.pixel_bits == 0 || self.pixel_bits > 8 {
            return Err(SwError::config(format!(
                "pixel depth {} outside the supported 1..=8 bits",
                self.pixel_bits
            )));
        }
        Ok(())
    }
}

/// Validating builder returned by [`ArchConfig::builder`].
///
/// Unlike the panicking [`ArchConfig::new`] + `with_*` chain, every
/// constraint violation is deferred to [`ArchConfigBuilder::build`] and
/// reported as [`SwError::Config`].
#[derive(Debug, Clone, Copy)]
pub struct ArchConfigBuilder {
    window: usize,
    width: usize,
    threshold: Coeff,
    policy: ThresholdPolicy,
    granularity: NBitsGranularity,
    pixel_bits: u32,
    coeff_mode: CoeffMode,
    codec: LineCodecKind,
}

impl ArchConfigBuilder {
    /// Set the line codec.
    pub fn codec(mut self, codec: LineCodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Set the threshold `T` (0 = lossless).
    pub fn threshold(mut self, t: Coeff) -> Self {
        self.threshold = t;
        self
    }

    /// Set the threshold policy.
    pub fn policy(mut self, p: ThresholdPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Set the NBits granularity.
    pub fn granularity(mut self, g: NBitsGranularity) -> Self {
        self.granularity = g;
        self
    }

    /// Set the pixel bit depth (1..=8).
    pub fn pixel_bits(mut self, bits: u32) -> Self {
        self.pixel_bits = bits;
        self
    }

    /// Set the coefficient datapath mode.
    pub fn coeff_mode(mut self, m: CoeffMode) -> Self {
        self.coeff_mode = m;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] on any constraint violation (see
    /// [`ArchConfig::validate`]).
    pub fn build(self) -> crate::error::Result<ArchConfig> {
        let cfg = ArchConfig {
            window: self.window,
            width: self.width,
            threshold: self.threshold,
            policy: self.policy,
            granularity: self.granularity,
            pixel_bits: self.pixel_bits,
            coeff_mode: self.coeff_mode,
            codec: self.codec,
            #[cfg(any(test, feature = "oracle"))]
            scalar_reference: false,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_wavelet::SubBand;

    #[test]
    fn builder_sets_fields() {
        let c = ArchConfig::new(8, 512)
            .with_threshold(4)
            .with_policy(ThresholdPolicy::AllSubbands)
            .with_granularity(NBitsGranularity::PerCoefficient);
        assert_eq!(c.window, 8);
        assert_eq!(c.threshold, 4);
        assert!(!c.is_lossless());
        assert_eq!(c.policy, ThresholdPolicy::AllSubbands);
        assert_eq!(c.granularity, NBitsGranularity::PerCoefficient);
    }

    #[test]
    fn paper_section3_example() {
        // 512×512 image, 3×3 window -> (512-3)×2×8 bits. Our windows are
        // even, so verify the formula with the nearest even case by hand:
        // the formula itself is the paper's.
        let c = ArchConfig::new(4, 512);
        assert_eq!(c.traditional_buffer_bits(), (512 - 4) * 3 * 8);
        assert_eq!(c.fifo_depth(), 508);
    }

    #[test]
    fn management_bits_formula() {
        // Paper Fig 3 discussion: 512 width, window 64 -> ~32 Kbits of
        // management (NBits 2×4×448 + BitMap 448×64 = 32256 bits).
        let c = ArchConfig::new(64, 512);
        assert_eq!(c.management_bits(), 32_256);
    }

    #[test]
    fn details_only_policy_spares_ll() {
        let p = ThresholdPolicy::DetailsOnly;
        assert_eq!(p.threshold_for(SubBand::LL, 6), 0);
        assert_eq!(p.threshold_for(SubBand::HH, 6), 6);
        let p = ThresholdPolicy::AllSubbands;
        assert_eq!(p.threshold_for(SubBand::LL, 6), 6);
    }

    #[test]
    fn checked_builder_accepts_valid_and_rejects_invalid() {
        let cfg = ArchConfig::builder(8, 64)
            .codec(LineCodecKind::Haar)
            .threshold(4)
            .build()
            .unwrap();
        assert_eq!(cfg, ArchConfig::new(8, 64).with_threshold(4));
        for bad in [
            ArchConfig::builder(7, 512).build(),
            ArchConfig::builder(0, 512).build(),
            ArchConfig::builder(64, 64).build(),
            ArchConfig::builder(6, 512)
                .codec(LineCodecKind::Haar2)
                .build(),
            ArchConfig::builder(8, 10)
                .codec(LineCodecKind::Haar2)
                .build(),
            ArchConfig::builder(8, 512).pixel_bits(0).build(),
        ] {
            let err = bad.expect_err("constraint violation must be rejected");
            assert!(matches!(err, crate::error::SwError::Config(_)), "got {err}");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_window_rejected() {
        ArchConfig::new(7, 512);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn window_wider_than_image_rejected() {
        ArchConfig::new(64, 64);
    }
}
