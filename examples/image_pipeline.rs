//! Multi-stage pipeline — the paper's second motivation: "most image
//! processing algorithms consists of 2-5 sequential sliding window
//! operations, where the output of one operation is fed via line buffers to
//! the following operation. These implementations require a high number of
//! BRAMs for implementing multiple sets of buffer lines."
//!
//! Builds a Gaussian → Sobel → Dilate edge-enhancement pipeline and totals
//! its BRAM cost with traditional vs compressed line buffers at every
//! stage, then writes before/after PGM images for inspection.
//!
//! ```text
//! cargo run --release --example image_pipeline [output-dir]
//! ```

use modified_sliding_window::image::pgm::write_pgm;
use modified_sliding_window::prelude::*;
use std::path::PathBuf;

fn stages(buffering: fn(Box<dyn WindowKernel>) -> Stage) -> Pipeline {
    Pipeline::new(vec![
        buffering(Box::new(GaussianFilter::new(16))),
        buffering(Box::new(SobelMagnitude::new(4))),
        buffering(Box::new(Dilate::new(4))),
    ])
}

fn main() {
    let img = ScenePreset::ALL[8].render(512, 256);

    let traditional = stages(Stage::traditional);
    let compressed = stages(|k| Stage::compressed(k, 0));

    let t = traditional.run(&img).expect("pipeline geometry is valid");
    let c = compressed.run(&img).expect("pipeline geometry is valid");

    assert_eq!(
        t.image, c.image,
        "lossless compressed pipeline is bit-identical"
    );

    println!("3-stage pipeline (Gaussian 16 -> Sobel 4 -> Dilate 4) @ 512x256\n");
    println!("stage    traditional BRAMs    compressed BRAMs");
    for (i, (a, b)) in t.stage_brams.iter().zip(&c.stage_brams).enumerate() {
        println!("  {i}      {a:>6}               {b:>6}");
    }
    println!(
        "total    {:>6}               {:>6}   ({:.0}% saved)",
        t.total_brams(),
        c.total_brams(),
        (1.0 - c.total_brams() as f64 / t.total_brams() as f64) * 100.0
    );

    // A lossy variant for BRAM-starved devices: threshold 4 on every stage.
    let lossy = stages(|k| Stage::compressed(k, 4));
    let l = lossy.run(&img).expect("pipeline geometry is valid");
    let err = mse(&t.image, &l.image);
    println!(
        "\nlossy (T=4) pipeline: {} BRAMs, output MSE {err:.2} vs lossless",
        l.total_brams()
    );

    // Dump images.
    let dir: PathBuf = std::env::args()
        .nth(1)
        .map(Into::into)
        .unwrap_or_else(std::env::temp_dir);
    for (name, image) in [("pipeline_input", &img), ("pipeline_edges", &t.image)] {
        let path = dir.join(format!("{name}.pgm"));
        match write_pgm(image, &path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
