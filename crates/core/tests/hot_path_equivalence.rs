//! Scalar-vs-sliced differential battery for the bit-sliced hot path.
//!
//! The u64 bit-sliced kernels (the product path) must be
//! bit-indistinguishable from the original per-coefficient loops (the
//! scalar reference behind the `oracle` feature): same output
//! frame, same [`FrameStats`] down to every counter (packed bits, NBits
//! management bits, per-band totals, occupancy watermarks), for every
//! codec, across awkward geometries (odd widths, minimum-legal widths),
//! thresholds, and coefficient extremes.
//!
//! A second battery pins the zero-copy scratch arenas: one
//! `SlidingWindow` instance reused across frames of different heights
//! and contents must match a freshly built architecture on every frame —
//! recycled encode/decode buffers may not leak state across frames.

use sw_core::arch::{build_arch, FrameOutput};
use sw_core::codec::LineCodecKind;
use sw_core::config::{ArchConfig, CoeffMode};
use sw_core::kernels::{BoxFilter, Tap, WindowKernel};
use sw_image::ImageU8;

const N: usize = 8;

/// Deterministic splitmix64 stream (no external RNG, no wall clock).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Textured scene with enough variation to exercise every NBits width.
fn scene(w: usize, h: usize, seed: u64) -> ImageU8 {
    let mut rng = Rng(seed);
    ImageU8::from_fn(w, h, |x, y| {
        let base = (120.0 + 70.0 * ((x as f64 * 0.21) + (y as f64 * 0.13)).sin()) as i64;
        (base + (rng.below(32) as i64 - 16)).clamp(0, 255) as u8
    })
}

/// Pixel-rate checkerboard: adjacent-pixel deltas of ±255 drive the Haar
/// detail coefficients to their extremes (±255 first stage, ±510 HH).
fn checkerboard(w: usize, h: usize) -> ImageU8 {
    ImageU8::from_fn(w, h, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 })
}

/// Vertical bars: maximal horizontal detail, zero vertical detail.
fn bars(w: usize, h: usize) -> ImageU8 {
    ImageU8::from_fn(w, h, |x, _| if x % 2 == 0 { 255 } else { 0 })
}

fn run(cfg: ArchConfig, img: &ImageU8, kernel: &dyn WindowKernel) -> FrameOutput {
    build_arch(&cfg)
        .unwrap()
        .process_frame(img, kernel)
        .unwrap()
}

/// Bit-level equality of everything a frame run reports.
fn assert_frames_identical(sliced: &FrameOutput, scalar: &FrameOutput, what: &str) {
    assert_eq!(
        sliced.image.pixels(),
        scalar.image.pixels(),
        "{what}: output frame"
    );
    for ((name, got), (_, want)) in sliced.stats.fields().into_iter().zip(scalar.stats.fields()) {
        assert_eq!(got, want, "{what}: stats field {name}");
    }
}

/// `cfg` on the product path and on the scalar reference, named.
fn both_paths(cfg: ArchConfig) -> [(&'static str, ArchConfig); 2] {
    [("sliced", cfg), ("scalar", cfg.with_scalar_reference())]
}

/// Run `img` on both paths and demand bit-identical results.
fn assert_paths_agree(base: ArchConfig, img: &ImageU8, kernel: &dyn WindowKernel, what: &str) {
    let sliced = run(base, img, kernel);
    let scalar = run(base.with_scalar_reference(), img, kernel);
    assert_frames_identical(&sliced, &scalar, what);
}

#[test]
fn every_codec_agrees_across_random_widths_and_thresholds() {
    // Random widths cover odd, ragged (not a multiple of the codec
    // group), and minimum-legal geometries; the Tap kernel exposes the
    // recirculated rows directly, so any codec divergence reaches the
    // output frame, not just the stats.
    let mut rng = Rng(0xc0de);
    let kernel = Tap::top_left(N);
    for codec in LineCodecKind::ALL {
        let group = codec.group_width();
        let min_w = N + group;
        let mut widths = vec![min_w, min_w + 1, 63, 64];
        for _ in 0..4 {
            widths.push(min_w + rng.below(56) as usize);
        }
        for w in widths {
            let h = (N + 1 + rng.below(24) as usize).max(N);
            let img = scene(w, h, 0xbeef ^ w as u64);
            for t in [0i16, 1, 4, 9] {
                let cfg = ArchConfig::builder(N, w)
                    .codec(codec)
                    .threshold(t)
                    .build()
                    .unwrap();
                assert_paths_agree(
                    cfg,
                    &img,
                    &kernel,
                    &format!("{} w={w} h={h} T={t}", codec.name()),
                );
            }
        }
    }
}

#[test]
fn coefficient_extremes_agree_in_both_datapath_modes() {
    // Checkerboards and bars drive the lifting steps to the i16 extremes
    // the 8-bit saturating datapath clips; both the exact and saturating
    // modes must stay path-invariant there.
    let kernel = BoxFilter::new(N);
    for codec in LineCodecKind::ALL {
        for img in [checkerboard(64, 24), bars(65, 19), checkerboard(37, 16)] {
            for mode in [CoeffMode::Exact, CoeffMode::Saturating8] {
                for t in [0i16, 4] {
                    let cfg = ArchConfig::builder(N, img.width())
                        .codec(codec)
                        .coeff_mode(mode)
                        .threshold(t)
                        .build()
                        .unwrap();
                    assert_paths_agree(
                        cfg,
                        &img,
                        &kernel,
                        &format!(
                            "{} {:?} T={t} {}x{}",
                            codec.name(),
                            mode,
                            img.width(),
                            img.height()
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn invalid_geometries_are_rejected_identically() {
    // Widths below window + group (including W < N) must be rejected at
    // config time on both paths — the scalar reference may not change
    // what is a legal configuration.
    for codec in LineCodecKind::ALL {
        for w in [1usize, N - 1, N, N + codec.group_width() - 1] {
            assert!(ArchConfig::builder(N, w).codec(codec).build().is_err());
            let mut cfg = ArchConfig::new(N, N + 2).with_codec(codec);
            cfg.width = w;
            for (path, cfg) in both_paths(cfg) {
                let err = cfg
                    .validate()
                    .expect_err("undersized width must be rejected");
                assert!(
                    matches!(err, sw_core::error::SwError::Config(_)),
                    "{} w={w} {path}: {err}",
                    codec.name(),
                );
                assert!(build_arch(&cfg).is_err(), "{} w={w} {path}", codec.name());
            }
        }
    }
}

#[test]
fn scratch_arenas_do_not_bleed_across_frames() {
    // One architecture instance reused across frames of different
    // heights and contents must match a freshly built instance on every
    // frame. The recycled encode/decode arenas are sized by the largest
    // frame seen so far, so running big -> small -> big catches stale
    // bytes surviving a reset or an undersized clear.
    let kernel = Tap::top_left(N);
    let frames = [
        scene(64, 40, 1),
        scene(64, N, 2), // minimum height: exactly one window
        checkerboard(64, 33),
        scene(64, 25, 3),
        bars(64, 40),
    ];
    for codec in LineCodecKind::ALL {
        for t in [0i16, 4] {
            let base = ArchConfig::builder(N, 64)
                .codec(codec)
                .threshold(t)
                .build()
                .unwrap();
            for (path, cfg) in both_paths(base) {
                let mut reused = build_arch(&cfg).unwrap();
                for (i, img) in frames.iter().enumerate() {
                    let got = reused.process_frame(img, &kernel).unwrap();
                    let fresh = run(cfg, img, &kernel);
                    assert_frames_identical(
                        &got,
                        &fresh,
                        &format!("{} {path} T={t} frame {i}", codec.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn scratch_arenas_survive_mid_sequence_reset() {
    // An explicit reset between frames (what the sharded runner and the
    // pipeline do at strip/stage boundaries) must behave exactly like a
    // frame boundary: the arena pools stay warm but carry no data.
    let kernel = BoxFilter::new(N);
    for codec in LineCodecKind::ALL {
        let cfg = ArchConfig::builder(N, 48).codec(codec).build().unwrap();
        let mut arch = build_arch(&cfg).unwrap();
        let a = scene(48, 30, 7);
        let b = checkerboard(48, 21);
        arch.process_frame(&a, &kernel).unwrap();
        arch.reset();
        let got = arch.process_frame(&b, &kernel).unwrap();
        let fresh = run(cfg, &b, &kernel);
        assert_frames_identical(&got, &fresh, &format!("{} after reset", codec.name()));
    }
}
