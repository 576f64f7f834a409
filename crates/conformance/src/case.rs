//! Case specification: the single, serializable description of one
//! conformance run.
//!
//! A [`CaseSpec`] names everything a run depends on — geometry, content
//! class, kernel, codec, threshold, overflow policy, budget fraction and
//! fault seed — so the corpus generator, the oracle engine, and the fuzz
//! shrinker all speak the same vocabulary, and a failing case can be
//! written to `vectors/regressions/` and replayed verbatim.

use sw_bitstream::digest::splitmix64;
use sw_core::codec::LineCodecKind;
use sw_core::config::ArchConfig;
use sw_core::error::SwError;
use sw_core::integral::Workload;
use sw_core::kernels::{BoxFilter, Tap, WindowKernel};
use sw_core::memory_unit::{MemoryUnitConfig, OverflowPolicy};
use sw_image::ImageU8;
use sw_telemetry::json::Json;

/// Deterministic image content classes the corpus and fuzzer draw from.
///
/// Each class stresses a different part of the datapath: gradients are
/// maximally compressible, checkerboards and noise are incompressible,
/// impulses starve the word-granular FIFOs (the packer-bypass path), and
/// the all-0/all-255 edges pin the coefficient range extremes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentClass {
    /// Horizontal ramp 0→255.
    GradientH,
    /// Vertical ramp 0→255.
    GradientV,
    /// 4×4-tile black/white checkerboard.
    Checkerboard,
    /// splitmix64 per-pixel noise (seeded).
    Noise,
    /// Mostly black with sparse bright impulses (seeded).
    Impulses,
    /// All zeros.
    Black,
    /// All 255.
    White,
    /// Per-row saturating prefix sums of small seeded increments: the u8
    /// shadow of the integral engine's monotone line content, stressing
    /// the width scan with values that only ever grow along a row.
    MonotoneRamp,
}

impl ContentClass {
    /// Every content class, in corpus order.
    pub const ALL: [ContentClass; 8] = [
        ContentClass::GradientH,
        ContentClass::GradientV,
        ContentClass::Checkerboard,
        ContentClass::Noise,
        ContentClass::Impulses,
        ContentClass::Black,
        ContentClass::White,
        ContentClass::MonotoneRamp,
    ];

    /// Stable lower-case name (used in vector files and case ids).
    pub fn name(self) -> &'static str {
        match self {
            ContentClass::GradientH => "gradient-h",
            ContentClass::GradientV => "gradient-v",
            ContentClass::Checkerboard => "checkerboard",
            ContentClass::Noise => "noise",
            ContentClass::Impulses => "impulses",
            ContentClass::Black => "black",
            ContentClass::White => "white",
            ContentClass::MonotoneRamp => "monotone-ramp",
        }
    }

    /// Parse a [`ContentClass::name`] value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Render the class at `w × h`. `seed` feeds the noise and impulse
    /// generators and is ignored by the deterministic patterns.
    pub fn render(self, w: usize, h: usize, seed: u64) -> ImageU8 {
        match self {
            ContentClass::GradientH => {
                ImageU8::from_fn(w, h, |x, _| (x * 255 / (w - 1).max(1)) as u8)
            }
            ContentClass::GradientV => {
                ImageU8::from_fn(w, h, |_, y| (y * 255 / (h - 1).max(1)) as u8)
            }
            ContentClass::Checkerboard => {
                ImageU8::from_fn(w, h, |x, y| if (x / 4 + y / 4) % 2 == 0 { 0 } else { 255 })
            }
            ContentClass::Noise => {
                ImageU8::from_fn(w, h, |x, y| splitmix64(seed ^ ((y * w + x) as u64)) as u8)
            }
            ContentClass::Impulses => ImageU8::from_fn(w, h, |x, y| {
                let r = splitmix64(seed ^ ((y * w + x) as u64).wrapping_mul(0x9e37));
                if r.is_multiple_of(89) {
                    128 | (r >> 32) as u8
                } else {
                    0
                }
            }),
            ContentClass::Black => ImageU8::filled(w, h, 0),
            ContentClass::White => ImageU8::filled(w, h, 255),
            ContentClass::MonotoneRamp => ImageU8::from_fn(w, h, |x, y| {
                let mut acc = 0u32;
                for i in 0..=x {
                    let inc = splitmix64(seed ^ ((y as u64) << 32) ^ i as u64) % 4;
                    acc += inc as u32;
                }
                acc.min(255) as u8
            }),
        }
    }
}

/// Sliding-window kernel under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// `N × N` box mean — exercises the whole window.
    Box,
    /// Top-left tap — passes the buffered pixel through, so the output
    /// directly exposes the reconstruction datapath.
    Tap,
}

impl KernelKind {
    /// Both kernels, in corpus order.
    pub const ALL: [KernelKind; 2] = [KernelKind::Box, KernelKind::Tap];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Box => "box",
            KernelKind::Tap => "tap",
        }
    }

    /// Parse a [`KernelKind::name`] value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Build the kernel for an `N`-row window.
    pub fn build(self, window: usize) -> Box<dyn WindowKernel> {
        match self {
            KernelKind::Box => Box::new(BoxFilter::new(window)),
            KernelKind::Tap => Box::new(Tap::top_left(window)),
        }
    }
}

/// Geometry coverage label relative to the window size `N`.
///
/// A label, not a validity verdict: whether a narrow frame is actually
/// rejected depends on the codec's group width, which the oracles check
/// against [`ArchConfig::builder`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShapeClass {
    /// `W < N + 4` — below some codecs' minimum width.
    Narrow,
    /// `H < N` — shorter than the window.
    Short,
    /// Odd width (exercises the even-crop path).
    OddWidth,
    /// Width or height not a multiple of `N`.
    Ragged,
    /// Both dimensions multiples of `N`.
    Aligned,
}

impl ShapeClass {
    /// Every shape class, for coverage totals.
    pub const ALL: [ShapeClass; 5] = [
        ShapeClass::Narrow,
        ShapeClass::Short,
        ShapeClass::OddWidth,
        ShapeClass::Ragged,
        ShapeClass::Aligned,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Narrow => "narrow",
            ShapeClass::Short => "short",
            ShapeClass::OddWidth => "odd-width",
            ShapeClass::Ragged => "ragged",
            ShapeClass::Aligned => "aligned",
        }
    }

    /// Classify `w × h` against window `n` (first matching label wins).
    pub fn of(window: usize, w: usize, h: usize) -> Self {
        if w < window + 4 {
            ShapeClass::Narrow
        } else if h < window {
            ShapeClass::Short
        } else if w % 2 == 1 {
            ShapeClass::OddWidth
        } else if !w.is_multiple_of(window) || !h.is_multiple_of(window) {
            ShapeClass::Ragged
        } else {
            ShapeClass::Aligned
        }
    }
}

/// One conformance case: everything a run depends on, serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseSpec {
    /// Window size `N`.
    pub window: usize,
    /// Image width `W`.
    pub width: usize,
    /// Image height `H`.
    pub height: usize,
    /// Content class rendered at `W × H`.
    pub content: ContentClass,
    /// Seed for the content generators.
    pub content_seed: u64,
    /// Kernel under test.
    pub kernel: KernelKind,
    /// Line codec under test.
    pub codec: LineCodecKind,
    /// Threshold `T` (0 = lossless).
    pub threshold: i16,
    /// Overflow policy; `None` runs without a memory unit (unbounded).
    pub policy: Option<OverflowPolicy>,
    /// Memory-unit budget as a percentage of the lossless-probe plan's
    /// provisioning (only meaningful when `policy` is set).
    pub budget_pct: u32,
    /// Fault-injection seed; `None` runs fault-free.
    pub fault_seed: Option<u64>,
    /// Which workload the case drives: the sliding-window datapath (the
    /// default, judged by the full oracle battery) or the wide integral
    /// engine (judged by the integral battery, with [`CaseSpec::window`]
    /// reinterpreted as the packing segment length).
    pub workload: Workload,
}

impl CaseSpec {
    /// The policy axis as a stable name (`"none"` without a memory unit).
    pub fn policy_name(&self) -> &'static str {
        self.policy.map_or("none", OverflowPolicy::name)
    }

    /// Full case id, unique across the corpus and fuzz streams.
    pub fn id(&self) -> String {
        let fault = match self.fault_seed {
            Some(s) => format!("-f{s}"),
            None => String::new(),
        };
        // Only the non-default workload marks the id, so pre-existing ids
        // never change.
        let wl = match self.workload {
            Workload::Window => String::new(),
            Workload::Integral => format!("-wl{}", self.workload.name()),
        };
        format!(
            "{}x{}-{}-s{}-n{}-{}-{}-t{}-{}-b{}{fault}{wl}",
            self.width,
            self.height,
            self.content.name(),
            self.content_seed,
            self.window,
            self.kernel.name(),
            self.codec.name(),
            self.threshold,
            self.policy_name(),
            self.budget_pct,
        )
    }

    /// The `(kernel × codec × threshold × policy)` cell key used inside
    /// one golden vector file (the image axis is the file itself).
    pub fn cell_key(&self) -> String {
        format!(
            "{}/{}/t{}/{}/b{}",
            self.kernel.name(),
            self.codec.name(),
            self.threshold,
            self.policy_name(),
            self.budget_pct
        )
    }

    /// Shape-coverage label of this case's geometry.
    pub fn shape(&self) -> ShapeClass {
        ShapeClass::of(self.window, self.width, self.height)
    }

    /// Render the case's input image.
    pub fn render(&self) -> ImageU8 {
        self.content
            .render(self.width, self.height, self.content_seed)
    }

    /// Validated architecture configuration for this case.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] whenever the geometry/threshold combination is
    /// invalid for the chosen codec — exactly the rejection the
    /// `ConfigRejection` oracle asserts on degenerate shapes.
    pub fn config(&self) -> Result<ArchConfig, SwError> {
        ArchConfig::builder(self.window, self.width)
            .threshold(self.threshold)
            .codec(self.codec)
            .build()
    }

    /// Effectively lossless: `T = 0`, or a codec that ignores `T`.
    pub fn is_effectively_lossless(&self) -> bool {
        self.threshold == 0 || !self.codec.is_lossy_capable()
    }

    /// The memory unit this case runs with: the lossless probe's BRAM
    /// plan provisioned at [`CaseSpec::budget_pct`] percent, or `None`
    /// without a policy.
    ///
    /// # Errors
    ///
    /// Propagates the probe's [`SwError`] (an invalid geometry fails here
    /// exactly as the real run would).
    pub fn memory_unit(&self) -> Result<Option<MemoryUnitConfig>, SwError> {
        let Some(policy) = self.policy else {
            return Ok(None);
        };
        let probe_cfg = ArchConfig::builder(self.window, self.width)
            .codec(self.codec)
            .build()?;
        let base = MemoryUnitConfig::provision(&self.render(), &probe_cfg, policy)?;
        let scaled = (base.capacity_bits * u64::from(self.budget_pct) / 100).max(1);
        Ok(Some(MemoryUnitConfig {
            capacity_bits: scaled,
            ..base
        }))
    }

    /// Serialize to the reproducer JSON object (see `vectors/regressions/`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        s.push_str(&format!("\"window\": {}, ", self.window));
        s.push_str(&format!("\"width\": {}, ", self.width));
        s.push_str(&format!("\"height\": {}, ", self.height));
        s.push_str(&format!("\"content\": \"{}\", ", self.content.name()));
        s.push_str(&format!("\"content_seed\": {}, ", self.content_seed));
        s.push_str(&format!("\"kernel\": \"{}\", ", self.kernel.name()));
        s.push_str(&format!("\"codec\": \"{}\", ", self.codec.name()));
        s.push_str(&format!("\"threshold\": {}, ", self.threshold));
        s.push_str(&format!("\"policy\": \"{}\", ", self.policy_name()));
        s.push_str(&format!("\"budget_pct\": {}, ", self.budget_pct));
        match self.fault_seed {
            Some(f) => s.push_str(&format!("\"fault_seed\": {f}, ")),
            None => s.push_str("\"fault_seed\": null, "),
        }
        s.push_str(&format!("\"workload\": \"{}\"", self.workload.name()));
        s.push('}');
        s
    }

    /// Deserialize from a reproducer JSON object.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first missing or malformed
    /// field.
    pub fn from_json(j: &Json) -> Result<CaseSpec, String> {
        let obj = j.as_obj().ok_or("case spec must be a JSON object")?;
        let num = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field `{key}`"))
        };
        let txt = |key: &str| -> Result<&str, String> {
            match obj.get(key) {
                Some(Json::Str(s)) => Ok(s.as_str()),
                _ => Err(format!("missing or non-string field `{key}`")),
            }
        };
        let content_name = txt("content")?;
        let kernel_name = txt("kernel")?;
        let codec_name = txt("codec")?;
        let policy_name = txt("policy")?;
        Ok(CaseSpec {
            window: num("window")? as usize,
            width: num("width")? as usize,
            height: num("height")? as usize,
            content: ContentClass::parse(content_name)
                .ok_or_else(|| format!("unknown content class `{content_name}`"))?,
            content_seed: num("content_seed")?,
            kernel: KernelKind::parse(kernel_name)
                .ok_or_else(|| format!("unknown kernel `{kernel_name}`"))?,
            codec: LineCodecKind::parse(codec_name)
                .ok_or_else(|| format!("unknown codec `{codec_name}`"))?,
            threshold: i16::try_from(num("threshold")?)
                .map_err(|_| "threshold out of range".to_string())?,
            policy: match policy_name {
                "none" => None,
                other => Some(
                    OverflowPolicy::parse(other)
                        .ok_or_else(|| format!("unknown policy `{other}`"))?,
                ),
            },
            budget_pct: num("budget_pct")? as u32,
            fault_seed: match obj.get("fault_seed") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or("non-integer `fault_seed`")?),
            },
            // Reproducers written before the workload axis existed are all
            // sliding-window cases.
            workload: match obj.get("workload") {
                Some(Json::Str(s)) => {
                    Workload::parse(s).ok_or_else(|| format!("unknown workload `{s}`"))?
                }
                Some(_) => return Err("non-string `workload`".into()),
                None => Workload::Window,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_telemetry::json::parse;

    fn sample() -> CaseSpec {
        CaseSpec {
            window: 8,
            width: 40,
            height: 24,
            content: ContentClass::Noise,
            content_seed: 7,
            kernel: KernelKind::Tap,
            codec: LineCodecKind::Haar,
            threshold: 4,
            policy: Some(OverflowPolicy::Stall),
            budget_pct: 50,
            fault_seed: Some(3),
            workload: Workload::Window,
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = sample();
        let parsed = CaseSpec::from_json(&parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        let mut no_fault = spec;
        no_fault.fault_seed = None;
        no_fault.policy = None;
        let parsed = CaseSpec::from_json(&parse(&no_fault.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, no_fault);
        let mut integral = spec;
        integral.workload = Workload::Integral;
        let parsed = CaseSpec::from_json(&parse(&integral.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, integral);
    }

    #[test]
    fn workload_axis_defaults_and_tags_consistently() {
        // Pre-workload reproducers (no `workload` key) replay as
        // sliding-window cases, and window ids carry no workload tag.
        let legacy = sample().to_json().replace(", \"workload\": \"window\"", "");
        assert!(!legacy.contains("workload"));
        let parsed = CaseSpec::from_json(&parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.workload, Workload::Window);
        let spec = sample();
        assert!(!spec.id().contains("-wl"));
        let mut integral = spec;
        integral.workload = Workload::Integral;
        assert!(integral.id().ends_with("-wlintegral"));
    }

    #[test]
    fn legacy_hot_path_key_is_ignored() {
        // Reproducers written while the hot path was a case axis carry a
        // `hot_path` key; every case now runs the product path (and the
        // `HotPathEquivalence` oracle diffs it against the scalar
        // reference), so either value replays the same case.
        let spec = sample();
        for hp in ["scalar", "sliced"] {
            let legacy = spec.to_json().replace(
                "\"workload\"",
                &format!("\"hot_path\": \"{hp}\", \"workload\""),
            );
            assert!(legacy.contains(hp));
            let parsed = CaseSpec::from_json(&parse(&legacy).unwrap()).unwrap();
            assert_eq!(parsed, spec);
        }
        assert!(!spec.id().contains("-hp"));
    }

    #[test]
    fn shape_classes_cover_the_corpus_geometries() {
        assert_eq!(ShapeClass::of(8, 6, 16), ShapeClass::Narrow);
        assert_eq!(ShapeClass::of(8, 48, 6), ShapeClass::Short);
        assert_eq!(ShapeClass::of(8, 33, 21), ShapeClass::OddWidth);
        assert_eq!(ShapeClass::of(8, 44, 24), ShapeClass::Ragged);
        assert_eq!(ShapeClass::of(8, 48, 32), ShapeClass::Aligned);
    }

    #[test]
    fn content_renders_are_deterministic() {
        for c in ContentClass::ALL {
            let a = c.render(24, 16, 5);
            let b = c.render(24, 16, 5);
            assert_eq!(a.pixels(), b.pixels(), "{}", c.name());
        }
        let a = ContentClass::Noise.render(24, 16, 1);
        let b = ContentClass::Noise.render(24, 16, 2);
        assert_ne!(a.pixels(), b.pixels(), "noise must depend on the seed");
    }

    #[test]
    fn memory_unit_scales_with_budget() {
        let mut spec = sample();
        spec.fault_seed = None;
        spec.budget_pct = 100;
        let full = spec.memory_unit().unwrap().unwrap();
        spec.budget_pct = 50;
        let half = spec.memory_unit().unwrap().unwrap();
        assert!(half.capacity_bits < full.capacity_bits);
        spec.policy = None;
        assert!(spec.memory_unit().unwrap().is_none());
    }
}
