//! The determinism suite for the halo-sharded runner (ISSUE 2's headline
//! tests, re-based on the codec layer in ISSUE 3).
//!
//! For every kernel × {lossless, T = 4} × jobs ∈ {1, 2, max}, the sharded
//! runner must produce an output frame, BRAM plan, and MSE that are
//! **byte-identical** to the sequential reference. The sequential
//! reference for a given shard plan is its `jobs = 1` execution (the pool
//! degenerates to a plain loop on the caller); for lossless compression,
//! where reconstruction is exact, the suite additionally pins the sharded
//! output to the *unsharded* full-frame architectures and the direct
//! golden model. Non-divisible heights (67 rows across K = 4/5/7 strips)
//! cover ragged last strips.
//!
//! The compressed codec under test defaults to the paper's Haar, and can
//! be switched with `SWC_DETERMINISM_CODEC={raw,haar,haar2,legall,locoi}`
//! (CI runs the suite a second time with `legall`). The
//! `every_codec_is_jobs_invariant` test always covers all five.

use sw_core::analysis::{analyze_frame, analyze_frame_par};
use sw_core::codec::LineCodecKind;
use sw_core::compressed::CompressedSlidingWindow;
use sw_core::config::ArchConfig;
use sw_core::kernels::{
    BoxFilter, CensusTransform, Convolution, Dilate, Erode, GaussianFilter, HarrisResponse,
    LocalBinaryPattern, MedianFilter, SeparableConv, SobelMagnitude, Tap, TemplateSad,
    WindowKernel,
};
use sw_core::pipeline::{Pipeline, Stage};
use sw_core::reference::direct_sliding_window;
use sw_core::shard::{ShardPlan, ShardedFrameRunner, ShardedOutput};
use sw_core::traditional::TraditionalSlidingWindow;
use sw_image::{mse, ImageU8};
use sw_pool::ThreadPool;

const N: usize = 8;
const W: usize = 64;
const H: usize = 67; // non-divisible: 60 output rows over K=4/5/7 strips

/// The compressed codec the kernel-grid tests exercise. Defaults to the
/// paper's Haar; `SWC_DETERMINISM_CODEC` re-points the whole suite so CI
/// can replay it per codec.
fn codec_under_test() -> LineCodecKind {
    match std::env::var("SWC_DETERMINISM_CODEC") {
        Ok(name) => LineCodecKind::parse(&name)
            .unwrap_or_else(|| panic!("SWC_DETERMINISM_CODEC: unknown codec '{name}'")),
        Err(_) => LineCodecKind::Haar,
    }
}

/// The jobs values the ISSUE names: 1, 2, and "max".
fn jobs_grid() -> [usize; 3] {
    let max = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(4);
    [1, 2, max]
}

/// Every kernel in the workspace, instantiated at window size N.
fn every_kernel() -> Vec<Box<dyn WindowKernel>> {
    let weights: Vec<f64> = (0..N * N).map(|i| ((i % 5) as f64 - 2.0) / 10.0).collect();
    let template: Vec<u8> = (0..N * N).map(|i| (i * 11 % 256) as u8).collect();
    let sep: Vec<f64> = (0..N).map(|i| 1.0 / (i + 1) as f64).collect();
    vec![
        Box::new(BoxFilter::new(N)),
        Box::new(GaussianFilter::new(N)),
        Box::new(SobelMagnitude::new(N)),
        Box::new(HarrisResponse::new(N)),
        Box::new(MedianFilter::new(N)),
        Box::new(Erode::new(N)),
        Box::new(Dilate::new(N)),
        Box::new(CensusTransform::new(N)),
        Box::new(LocalBinaryPattern::new(N)),
        Box::new(Tap::top_left(N)),
        Box::new(TemplateSad::new(N, template)),
        Box::new(Convolution::new(N, weights, 12.0)),
        Box::new(SeparableConv::new(sep.clone(), sep, 0.0)),
    ]
}

fn scene(w: usize, h: usize) -> ImageU8 {
    ImageU8::from_fn(w, h, |x, y| {
        (120.0 + 70.0 * ((x as f64 * 0.21) + (y as f64 * 0.13)).sin() + ((x * y) % 7) as f64) as u8
    })
}

fn run_sharded(
    codec: LineCodecKind,
    threshold: i16,
    img: &ImageU8,
    kernel: &dyn WindowKernel,
    strips: usize,
    jobs: usize,
) -> ShardedOutput {
    let pool = ThreadPool::new(jobs);
    let cfg = ArchConfig::new(N, img.width())
        .with_codec(codec)
        .with_threshold(threshold);
    ShardedFrameRunner::new(cfg)
        .with_strips(strips)
        .run(img, kernel, &pool)
        .unwrap()
}

/// Byte-level equality of everything a sharded run reports that feeds the
/// paper's tables: frame bytes, BRAM plan, cycles, peak occupancy, MSE.
fn assert_outputs_identical(a: &ShardedOutput, b: &ShardedOutput, what: &str) {
    assert_eq!(a.image.pixels(), b.image.pixels(), "{what}: frame bytes");
    assert_eq!(a.brams, b.brams, "{what}: BRAM count");
    assert_eq!(a.bram_plan, b.bram_plan, "{what}: BRAM plan");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(
        a.peak_payload_occupancy, b.peak_payload_occupancy,
        "{what}: peak occupancy"
    );
    assert_eq!(a.strip_stats, b.strip_stats, "{what}: strip stats");
}

#[test]
fn every_kernel_is_jobs_invariant_lossless_and_lossy() {
    let img = scene(W, H);
    let codec = codec_under_test();
    for kernel in every_kernel() {
        for (c, t) in [(LineCodecKind::Raw, 0i16), (codec, 0), (codec, 4)] {
            // Sequential reference: the same shard plan at jobs = 1.
            let reference = run_sharded(c, t, &img, kernel.as_ref(), 4, 1);
            for jobs in jobs_grid() {
                let got = run_sharded(c, t, &img, kernel.as_ref(), 4, jobs);
                assert_outputs_identical(
                    &got,
                    &reference,
                    &format!("{} {} T={t} jobs={jobs}", kernel.name(), c.name()),
                );
            }
        }
    }
}

#[test]
fn every_codec_is_jobs_invariant_lossless_and_lossy() {
    // ISSUE 3's satellite: every codec × {lossless, T = 4} × jobs
    // {1, max} must be byte-identical to the jobs = 1 reference. One
    // kernel suffices per codec — the kernel grid above already covers
    // kernel diversity for the codec under test.
    let img = scene(W, H);
    let kernel = Tap::top_left(N); // exposes raw recirculated pixels
    let max_jobs = *jobs_grid().last().unwrap();
    for codec in LineCodecKind::ALL {
        for t in [0i16, 4] {
            let reference = run_sharded(codec, t, &img, &kernel, 4, 1);
            for jobs in [1usize, max_jobs] {
                let got = run_sharded(codec, t, &img, &kernel, 4, jobs);
                assert_outputs_identical(
                    &got,
                    &reference,
                    &format!("{} T={t} jobs={jobs}", codec.name()),
                );
            }
            // Lossless runs of every codec reproduce the golden model.
            if t == 0 {
                assert_eq!(
                    reference.image,
                    direct_sliding_window(&img, &kernel),
                    "{} lossless != direct",
                    codec.name()
                );
            }
        }
    }
}

#[test]
fn every_kernel_lossless_sharded_matches_unsharded_sequential() {
    // T = 0 reconstruction is exact, so each strip reproduces the
    // full-frame rows bit-for-bit: the stitched frame must equal the
    // unsharded compressed run, the traditional run, and the direct
    // golden model.
    let img = scene(W, H);
    let cfg = ArchConfig::new(N, W);
    let codec = codec_under_test();
    for kernel in every_kernel() {
        let direct = direct_sliding_window(&img, kernel.as_ref());
        let trad = TraditionalSlidingWindow::new(cfg)
            .process_frame(&img, kernel.as_ref())
            .unwrap();
        let comp = CompressedSlidingWindow::new(cfg)
            .process_frame(&img, kernel.as_ref())
            .unwrap();
        assert_eq!(trad.image, direct, "{}", kernel.name());
        assert_eq!(comp.image, direct, "{}", kernel.name());
        for jobs in jobs_grid() {
            let sharded = run_sharded(codec, 0, &img, kernel.as_ref(), 4, jobs);
            assert_eq!(
                sharded.image,
                direct,
                "{} lossless sharded != unsharded (jobs={jobs})",
                kernel.name()
            );
            let sharded_trad = run_sharded(LineCodecKind::Raw, 0, &img, kernel.as_ref(), 4, jobs);
            assert_eq!(sharded_trad.image, direct, "{} traditional", kernel.name());
        }
    }
}

#[test]
fn mse_bits_are_identical_across_jobs() {
    // Lossy quality numbers feed the paper's MSE tables: the f64 must be
    // byte-identical, not merely close.
    let img = scene(W, H);
    let codec = codec_under_test();
    for kernel in [
        Box::new(BoxFilter::new(N)) as Box<dyn WindowKernel>,
        Box::new(Tap::top_left(N)),
        Box::new(GaussianFilter::new(N)),
    ] {
        let reference = direct_sliding_window(&img, kernel.as_ref());
        let baseline = {
            let out = run_sharded(codec, 4, &img, kernel.as_ref(), 4, 1);
            mse(&out.image, &reference).to_bits()
        };
        for jobs in jobs_grid() {
            let out = run_sharded(codec, 4, &img, kernel.as_ref(), 4, jobs);
            assert_eq!(
                mse(&out.image, &reference).to_bits(),
                baseline,
                "{} MSE bits differ at jobs={jobs}",
                kernel.name()
            );
        }
    }
}

#[test]
fn ragged_heights_and_strip_counts_are_deterministic() {
    // 67 rows, K ∈ {4, 5, 7}: 60 output rows split unevenly; the last
    // strip is shorter. Also heights that leave a 1-row last strip.
    let kernel = BoxFilter::new(N);
    let codec = codec_under_test();
    for h in [67usize, 61, 66] {
        let img = scene(W, h);
        for strips in [4usize, 5, 7] {
            let plan = ShardPlan::new(N, h, strips);
            let covered: usize = plan.spans.iter().map(|s| s.output_rows).sum();
            assert_eq!(covered, h - N + 1, "h={h} K={strips} coverage");
            for t in [0i16, 4] {
                let reference = run_sharded(codec, t, &img, &kernel, strips, 1);
                for jobs in jobs_grid() {
                    let got = run_sharded(codec, t, &img, &kernel, strips, jobs);
                    assert_outputs_identical(
                        &got,
                        &reference,
                        &format!("h={h} K={strips} {} T={t} jobs={jobs}", codec.name()),
                    );
                }
            }
            // Lossless must also match the unsharded frame at every K.
            let lossless = run_sharded(codec, 0, &img, &kernel, strips, 2);
            assert_eq!(
                lossless.image,
                direct_sliding_window(&img, &kernel),
                "h={h} K={strips} lossless"
            );
        }
    }
}

#[test]
fn hot_path_is_jobs_invariant_and_matches_the_scalar_oracle() {
    // The u64 bit-sliced hot path must be byte-identical to the
    // scalar oracle under the sharded runner too, at jobs {1, max} — the
    // per-strip scratch arenas may not introduce any jobs- or
    // path-dependence.
    let img = scene(W, H);
    let kernel = Tap::top_left(N);
    let max_jobs = *jobs_grid().last().unwrap();
    for codec in LineCodecKind::ALL {
        for t in [0i16, 4] {
            let base = ArchConfig::new(N, img.width())
                .with_codec(codec)
                .with_threshold(t);
            let run = |cfg: ArchConfig, jobs: usize| {
                let pool = ThreadPool::new(jobs);
                ShardedFrameRunner::new(cfg)
                    .with_strips(4)
                    .run(&img, &kernel, &pool)
                    .unwrap()
            };
            let reference = run(base.with_scalar_reference(), 1);
            for (path, cfg) in [("scalar", base.with_scalar_reference()), ("sliced", base)] {
                for jobs in [1usize, max_jobs] {
                    let got = run(cfg, jobs);
                    assert_outputs_identical(
                        &got,
                        &reference,
                        &format!("{} T={t} {path} jobs={jobs}", codec.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn analyzer_par_is_bit_identical_to_sequential() {
    for (w, h, n, t) in [
        (64usize, 67usize, 8usize, 0i16),
        (64, 48, 8, 4),
        (128, 64, 16, 2),
    ] {
        let img = scene(w, h);
        let cfg = ArchConfig::new(n, w).with_threshold(t);
        let seq = analyze_frame(&img, &cfg);
        for jobs in jobs_grid() {
            let pool = ThreadPool::new(jobs);
            let par = analyze_frame_par(&img, &cfg, &pool).unwrap();
            assert_eq!(par, seq, "w={w} h={h} n={n} t={t} jobs={jobs}");
        }
    }
}

#[test]
fn pipeline_run_sharded_is_jobs_invariant_and_lossless_exact() {
    let img = scene(96, 67);
    let codec = codec_under_test();
    let stages = || {
        Pipeline::new(vec![
            Stage::with_codec(Box::new(GaussianFilter::new(8)), codec, 0),
            Stage::with_codec(Box::new(SobelMagnitude::new(4)), codec, 0),
        ])
    };
    // Lossless sharded pipeline equals the unsharded pipeline exactly.
    let mut seq = stages();
    let expect = seq.run(&img).unwrap();
    let pool1 = ThreadPool::new(1);
    let reference = stages().run_sharded(&img, &pool1, 4).unwrap();
    assert_eq!(reference.image, expect.image, "lossless pipeline output");
    for jobs in jobs_grid() {
        let pool = ThreadPool::new(jobs);
        let got = stages().run_sharded(&img, &pool, 4).unwrap();
        assert_eq!(got.image.pixels(), reference.image.pixels(), "jobs={jobs}");
        assert_eq!(got.stage_brams, reference.stage_brams, "jobs={jobs}");
        assert_eq!(got.cycles, reference.cycles, "jobs={jobs}");
    }
}
