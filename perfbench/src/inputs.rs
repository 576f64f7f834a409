//! Seeded inputs: frames, job specs and arrival schedules.
//!
//! Everything a run feeds the program is a function of `--seed`; the
//! program only ever sees the generated frames and requests.

use sw_core::codec::LineCodecKind;
use sw_core::{Coeff, HotPath};
use sw_image::synth::ScenePreset;
use sw_image::ImageU8;
use sw_serve::api::{FramePayload, JobKernel};
use sw_serve::{JobRequest, JobSpec};

/// SplitMix64: small, seedable, and good enough for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of `seed`; distinct `stream`s of the same
    /// seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Scene `preset` of the dataset rendered at `w × h` with its noise seed
/// moved by `seed`.
pub fn scene(seed: u64, preset: usize, w: usize, h: usize) -> ImageU8 {
    let mut p = ScenePreset::ALL[preset % ScenePreset::ALL.len()];
    p.seed ^= Rng::new(seed, 0x5CE1E + preset as u64).next_u64();
    p.render(w, h)
}

/// One kernel/codec/threshold combination of the datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    /// Metric-name form, e.g. `box_haar_t0`.
    pub name: &'static str,
    /// Kernel applied to every window.
    pub kernel: JobKernel,
    /// Line codec buffering the rows.
    pub codec: LineCodecKind,
    /// Lossy threshold (0 = lossless).
    pub threshold: Coeff,
}

/// The datapath legs: the paper's architecture, the lossy threshold path
/// with the f64 kernel, and the traditional buffer.
pub const LEGS: [Leg; 3] = [
    Leg {
        name: "box_haar_t0",
        kernel: JobKernel::Box,
        codec: LineCodecKind::Haar,
        threshold: 0,
    },
    Leg {
        name: "gaussian_haar_t4",
        kernel: JobKernel::Gaussian,
        codec: LineCodecKind::Haar,
        threshold: 4,
    },
    Leg {
        name: "sobel_raw",
        kernel: JobKernel::Sobel,
        codec: LineCodecKind::Raw,
        threshold: 0,
    },
];

/// Window size of every workload.
pub const WINDOW: usize = 8;

impl Leg {
    /// The job spec this leg describes. The hot path is pinned so the
    /// inputs do not depend on the generator's environment.
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            window: WINDOW,
            threshold: self.threshold,
            codec: self.codec,
            kernel: self.kernel,
            hot_path: HotPath::default(),
            ..JobSpec::default()
        }
    }

    /// Whether the output must byte-equal the direct golden model.
    pub fn lossless(&self) -> bool {
        self.threshold == 0
    }
}

/// A whole-frame request for `img` under `leg`.
pub fn request(img: &ImageU8, leg: &Leg) -> JobRequest {
    JobRequest {
        tenant: "bench".into(),
        spec: leg.spec(),
        frame: FramePayload::from_image(img),
        want_frame: false,
    }
}

/// The `serve-small` spec mix: the datapath legs plus the other window
/// codecs, so the small-job path sees every codec family.
pub const SMALL_LEGS: [Leg; 6] = [
    LEGS[0],
    LEGS[1],
    LEGS[2],
    Leg {
        name: "tap_haar2_t0",
        kernel: JobKernel::Tap,
        codec: LineCodecKind::Haar2,
        threshold: 0,
    },
    Leg {
        name: "box_legall_t0",
        kernel: JobKernel::Box,
        codec: LineCodecKind::Legall,
        threshold: 0,
    },
    Leg {
        name: "median_locoi_t0",
        kernel: JobKernel::Median,
        codec: LineCodecKind::Locoi,
        threshold: 0,
    },
];

/// Send times (ns from the window's start) of a constant-interval feed at
/// `rate` per second over `[start, end)`, shifted by `phase` of one
/// interval.
pub fn constant_arrivals(rate: f64, start: u64, end: u64, phase: f64) -> Vec<u64> {
    let step = 1e9 / rate;
    let mut out = Vec::new();
    let mut t = start as f64 + phase * step;
    while t < end as f64 {
        out.push(t as u64);
        t += step;
    }
    out
}

/// Send times of a Poisson process at `rate` per second over
/// `[start, end)`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, start: u64, end: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = start as f64;
    loop {
        // Exponential gap; 1 − u keeps the logarithm finite.
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= end as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_core::digest::image_digest;

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        let a: Vec<u64> = (0..10)
            .map(|p| image_digest(&scene(7, p, 32, 24)))
            .collect();
        let b: Vec<u64> = (0..10)
            .map(|p| image_digest(&scene(7, p, 32, 24)))
            .collect();
        let c: Vec<u64> = (0..10)
            .map(|p| image_digest(&scene(8, p, 32, 24)))
            .collect();
        assert_eq!(a, b);
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let s = |seed| poisson_arrivals(&mut Rng::new(seed, 1), 1000.0, 0, 1_000_000_000);
        assert_eq!(s(3), s(3));
        assert_ne!(s(3), s(4));
        // Independent streams of one seed differ too.
        let t = poisson_arrivals(&mut Rng::new(3, 2), 1000.0, 0, 1_000_000_000);
        assert_ne!(s(3), t);
    }

    #[test]
    fn arrival_rates_match_their_nominal_rate() {
        let n = poisson_arrivals(&mut Rng::new(1, 1), 1000.0, 0, 10_000_000_000).len();
        assert!((9_500..10_500).contains(&n), "{n}");
        let c = constant_arrivals(8.0, 0, 2_000_000_000, 0.5);
        assert_eq!(c.len(), 16);
        assert_eq!(c[0], 62_500_000);
        assert!(c.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn legs_build_valid_specs() {
        for leg in SMALL_LEGS {
            let spec = leg.spec();
            assert!(spec.arch_config(16).is_ok(), "{}", leg.name);
            assert_eq!(spec.hot_path, HotPath::default());
        }
    }
}
