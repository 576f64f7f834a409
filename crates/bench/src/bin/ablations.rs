//! Design-space ablations the paper describes in prose (experiments
//! E15–E18):
//!
//! * **Levels** (Section IV-C): "using 2 or 3 levels of decomposition did
//!   not increase the compression ratio significantly."
//! * **Wavelet choice** (Section IV-C): "We also chose the Haar wavelet
//!   transform instead of other transformations like 5/3 and 7/9."
//! * **NBits granularity** (Section IV-C): per column vs per coefficient
//!   vs per sub-band.
//! * **Threshold policy**: details-only (our default reading of Figure 2)
//!   vs thresholding every sub-band.
//!
//! ```text
//! cargo run --release -p sw-bench --bin ablations [--quick]
//! ```

use sw_bench::table::render;
use sw_bench::{analyze_dataset, scene_images, Sweep};
use sw_bitstream::column_cost;
use sw_core::compressed::CompressedSlidingWindow;
use sw_core::compressed_ml::TwoLevelCompressedSlidingWindow;
use sw_core::config::{ArchConfig, NBitsGranularity, ThresholdPolicy};
use sw_core::kernels::BoxFilter;
use sw_core::stats::summarize;
use sw_image::ImageU8;
use sw_wavelet::haar2d::forward_image;
use sw_wavelet::legall::legall53_forward_image;
use sw_wavelet::multilevel::decompose;
use sw_wavelet::{Coeff, SubBand};

/// Cost a coefficient plane with the paper's per-column scheme, using a
/// fixed 8-coefficient column height (the costing unit is held constant so
/// levels/wavelets compare like for like).
fn plane_bits(plane: &[Coeff], w: usize, h: usize, t: i16) -> u64 {
    const COL: usize = 8;
    let mut total = 0u64;
    let mut buf = [0 as Coeff; COL];
    for x in 0..w {
        let mut y = 0;
        while y < h {
            let len = COL.min(h - y);
            for (k, b) in buf[..len].iter_mut().enumerate() {
                *b = plane[(y + k) * w + x];
            }
            total += column_cost(&buf[..len], t).total_bits();
            y += len;
        }
    }
    total
}

fn levels_ablation(images: &[(String, ImageU8)]) {
    println!("E15 — decomposition levels (lossless, bits relative to raw 8 bpp)\n");
    let mut rows = Vec::new();
    for levels in 1..=3usize {
        let ratios: Vec<f64> = sw_pool::global().par_map(images, |(_, img)| {
            let (w, h) = (img.width(), img.height());
            let pixels: Vec<Coeff> = img.pixels().iter().map(|&p| p as Coeff).collect();
            let pyr = decompose(&pixels, w, h, levels);
            let mut bits = plane_bits(&pyr.top_ll, w >> levels, h >> levels, 0);
            for d in &pyr.details {
                bits += plane_bits(&d.lh, d.w, d.h, 0);
                bits += plane_bits(&d.hl, d.w, d.h, 0);
                bits += plane_bits(&d.hh, d.w, d.h, 0);
            }
            bits as f64 / (w * h * 8) as f64
        });
        let s = summarize(&ratios).expect("non-empty dataset");
        rows.push(vec![
            levels.to_string(),
            format!("{:.4}", s.mean),
            format!("{:.1}%", (1.0 - s.mean) * 100.0),
        ]);
    }
    println!("{}", render(&["levels", "compressed/raw", "saving"], &rows));
    println!("(paper: extra levels \"did not increase the compression ratio significantly\")\n");
}

fn wavelet_ablation(images: &[(String, ImageU8)]) {
    println!("E16 — Haar vs LeGall 5/3 (single level, lossless)\n");
    let mut rows = Vec::new();
    for (name, is_haar) in [("Haar", true), ("LeGall 5/3", false)] {
        let ratios: Vec<f64> = sw_pool::global().par_map(images, |(_, img)| {
            let (w, h) = (img.width(), img.height());
            let pixels: Vec<Coeff> = img.pixels().iter().map(|&p| p as Coeff).collect();
            let planes = if is_haar {
                forward_image(&pixels, w, h)
            } else {
                legall53_forward_image(&pixels, w, h)
            };
            let bits: u64 = SubBand::ALL
                .iter()
                .map(|&b| plane_bits(planes.plane(b), planes.w, planes.h, 0))
                .sum();
            bits as f64 / (w * h * 8) as f64
        });
        let s = summarize(&ratios).expect("non-empty dataset");
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", s.mean),
            format!("{:.1}%", (1.0 - s.mean) * 100.0),
        ]);
    }
    println!(
        "{}",
        render(&["wavelet", "compressed/raw", "saving"], &rows)
    );
    println!("(paper: 5/3 rejected for hardware cost; the ratio gap quantifies what it buys)\n");
}

fn granularity_ablation(images: &[(String, ImageU8)]) {
    println!("E17 — NBits granularity (lossless, total = payload + management)\n");
    let mut rows = Vec::new();
    for n in [8usize, 64] {
        for (name, g) in [
            ("per column", NBitsGranularity::PerColumn),
            ("per coefficient", NBitsGranularity::PerCoefficient),
            ("per sub-band", NBitsGranularity::PerSubband),
        ] {
            let savings: Vec<f64> = sw_pool::global().par_map(images, |(_, img)| {
                let cfg = sw_core::config::ArchConfig::builder(n, img.width())
                    .granularity(g)
                    .build()
                    .expect("ablation config is valid");
                sw_core::analysis::analyze_frame(img, &cfg).saving_pct()
            });
            let s = summarize(&savings).expect("non-empty dataset");
            rows.push(vec![
                n.to_string(),
                name.to_string(),
                format!("{:.1} ± {:.1}", s.mean, s.ci90_half_width),
            ]);
        }
    }
    println!("{}", render(&["window", "granularity", "saving %"], &rows));
    println!("(the paper chose per-column as the streaming-friendly compromise)\n");
}

fn policy_ablation(images: &[(String, ImageU8)]) {
    println!("E18 — threshold policy (window 8)\n");
    let mut rows = Vec::new();
    for t in [2i16, 4, 6] {
        for (name, policy) in [
            ("details only", ThresholdPolicy::DetailsOnly),
            ("all sub-bands", ThresholdPolicy::AllSubbands),
        ] {
            let analyses = analyze_dataset(images, 8, t, policy);
            let s = summarize(&analyses.iter().map(|a| a.saving_pct()).collect::<Vec<_>>())
                .expect("non-empty dataset");
            rows.push(vec![
                t.to_string(),
                name.to_string(),
                format!("{:.1} ± {:.1}", s.mean, s.ci90_half_width),
            ]);
        }
    }
    println!("{}", render(&["T", "policy", "saving %"], &rows));
    println!("(thresholding LL buys little extra saving — LL coefficients are rarely small)\n");
}

fn streaming_levels(images: &[(String, ImageU8)]) {
    println!("E15b — streaming architectures: single-level vs two-level (lossless)\n");
    let mut rows = Vec::new();
    for n in [8usize, 16] {
        let width = images[0].1.width();
        let kernel = BoxFilter::new(n);
        let results: Vec<(f64, f64)> = sw_pool::global().par_map(images, |(_, img)| {
            let cfg = ArchConfig::builder(n, width)
                .build()
                .expect("ablation config is valid");
            let mut one = CompressedSlidingWindow::new(cfg);
            let s1 = one
                .process_frame(img, &kernel)
                .unwrap()
                .stats
                .memory_saving_pct();
            let mut two = TwoLevelCompressedSlidingWindow::new(cfg);
            let s2 = two
                .process_frame(img, &kernel)
                .unwrap()
                .stats
                .memory_saving_pct();
            (s1, s2)
        });
        let one =
            summarize(&results.iter().map(|r| r.0).collect::<Vec<_>>()).expect("non-empty dataset");
        let two =
            summarize(&results.iter().map(|r| r.1).collect::<Vec<_>>()).expect("non-empty dataset");
        rows.push(vec![
            n.to_string(),
            format!("{:.1} ± {:.1}", one.mean, one.ci90_half_width),
            format!("{:.1} ± {:.1}", two.mean, two.ci90_half_width),
        ]);
    }
    println!(
        "{}",
        render(&["window", "1-level saving %", "2-level saving %"], &rows)
    );
    println!("(the in-stream measurement of what the paper's rejected extension buys)\n");
}

fn main() {
    match sw_bench::jobs_from_args() {
        Ok(Some(jobs)) => sw_pool::configure_global(jobs).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let sweep = Sweep::from_args();
    let res = if sweep.scenes >= 10 { 512 } else { 256 };
    eprintln!("rendering {} scenes at {res}x{res}...", sweep.scenes);
    let images = scene_images(res, res, sweep.scenes);

    levels_ablation(&images);
    streaming_levels(&images);
    wavelet_ablation(&images);
    granularity_ablation(&images);
    policy_ablation(&images);
}
