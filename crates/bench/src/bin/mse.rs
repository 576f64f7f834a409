//! MSE vs threshold (experiment E8).
//!
//! The paper (Section VI-A): "thresholds of 2, 4 and 6 gives mean square
//! errors (MSEs) of 0.59, 3.2 and 4.8 respectively." Those are single-pass
//! figures; the streaming architecture recompresses each buffered pixel
//! `N − 1` times, so we report both regimes.
//!
//! ```text
//! cargo run --release -p sw-bench --bin mse [--quick] [--codec <name>]
//!     [--telemetry-out <path>]
//! ```
//!
//! `--codec` swaps the line codec in the compounded column (default: the
//! paper's Haar); the single-pass column is Haar-specific and unaffected.

use sw_bench::table::render;
use sw_bench::{cli_setup, codec_from_args, paper, scene_images, write_telemetry_report, Sweep};
use sw_bitstream::apply_threshold;
use sw_core::arch::build_arch;
use sw_core::codec::LineCodecKind;
use sw_core::config::ArchConfig;
use sw_core::kernels::Tap;
use sw_core::stats::summarize;
use sw_image::{mse, ImageU8};
use sw_wavelet::haar2d::{forward_image, inverse_image};
use sw_wavelet::SubBand;

/// Single-pass MSE: one forward transform, detail thresholding, inverse.
fn one_shot_mse(img: &ImageU8, t: i16) -> f64 {
    let (w, h) = (img.width(), img.height());
    let pixels: Vec<i16> = img.pixels().iter().map(|&p| p as i16).collect();
    let mut planes = forward_image(&pixels, w, h);
    for band in [SubBand::LH, SubBand::HL, SubBand::HH] {
        for c in planes.plane_mut(band) {
            *c = apply_threshold(*c, t);
        }
    }
    let rec: Vec<u8> = inverse_image(&planes)
        .into_iter()
        .map(|v| v.clamp(0, 255) as u8)
        .collect();
    mse(img, &ImageU8::from_vec(w, h, rec))
}

/// Compounded MSE: the real datapath, measured at the most-recirculated
/// window position (N − 1 compression trips). Datapath activity lands in
/// `telemetry` under `stage.mse_t<t>.*` (shared across the parallel scenes;
/// the instruments are atomic).
fn compounded_mse(
    img: &ImageU8,
    n: usize,
    t: i16,
    codec: LineCodecKind,
    telemetry: &sw_telemetry::TelemetryHandle,
) -> f64 {
    let cfg = ArchConfig::builder(n, img.width())
        .threshold(t)
        .codec(codec)
        .build()
        .expect("benchmark config is valid");
    let mut arch = build_arch(&cfg).expect("benchmark config is valid");
    arch.bind_telemetry(telemetry, &format!("mse_t{t}"));
    let out = arch
        .process_frame(img, &Tap::top_left(n))
        .expect("benchmark frame matches the config");
    let crop = img.crop(0, 0, out.image.width(), out.image.height());
    mse(&out.image, &crop)
}

fn main() {
    let (tele, tele_path) = cli_setup();
    let codec = codec_from_args()
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
        .unwrap_or(LineCodecKind::Haar);
    let sweep = Sweep::from_args();
    let res = if sweep.scenes >= 10 { 512 } else { 256 };
    eprintln!("rendering {} scenes at {res}x{res}...", sweep.scenes);
    let images = scene_images(res, res, sweep.scenes);
    let n = 8;

    println!(
        "MSE vs threshold over {} scenes @ {res}x{res} (window {n}, codec {} for the compounded column)\n",
        sweep.scenes,
        codec.name()
    );
    let mut rows = Vec::new();
    for &(t, paper_mse) in &paper::PAPER_MSE {
        let _span = tele.profile_span(&format!("mse.t{t}"));
        let pool = sw_pool::global();
        let single = pool.par_map(&images, |(_, i)| one_shot_mse(i, t));
        let comp = pool.par_map(&images, |(_, i)| compounded_mse(i, n, t, codec, &tele));
        let s = summarize(&single).expect("non-empty dataset");
        let c = summarize(&comp).expect("non-empty dataset");
        rows.push(vec![
            t.to_string(),
            format!("{:.2} ± {:.2}", s.mean, s.ci90_half_width),
            format!("{:.2} ± {:.2}", c.mean, c.ci90_half_width),
            format!("{paper_mse:.2}"),
        ]);
    }
    println!(
        "{}",
        render(
            &["T", "single-pass MSE", "compounded MSE", "paper MSE"],
            &rows
        )
    );
    println!("(paper values are single-pass on MIT Places scenes; ours is a synthetic dataset)");
    if let Some(path) = tele_path {
        write_telemetry_report(&tele, &path).expect("write telemetry report");
    }
}
