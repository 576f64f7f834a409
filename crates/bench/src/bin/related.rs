//! Related-work comparison (paper Section II + contribution 1).
//!
//! Three comparisons on the shared dataset:
//!
//! 1. **Compression ratio vs the state of the art** — the paper claims its
//!    scheme "gives comparable compression ratios to the state of the art
//!    compression algorithms"; we measure it against a LOCO-I / JPEG-LS
//!    style coder.
//! 2. **Block buffering** (refs \[5]\[6]) — on-chip memory vs off-chip
//!    traffic trade-off.
//! 3. **Segmented processing** (ref \[7]) — BRAMs vs re-fetch traffic and
//!    the loss of camera streaming.
//!
//! ```text
//! cargo run --release -p sw-bench --bin related [--quick]
//! ```

use sw_bench::table::render;
use sw_bench::{scene_images, Sweep};
use sw_core::analysis::analyze_frame;
use sw_core::config::ArchConfig;
use sw_core::planner::{plan, traditional_brams, MgmtAccounting};
use sw_core::stats::summarize;
use sw_related::{locoi_compressed_bits, BlockBufferPlan, SegmentedPlan};

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

    compression_ratio(&images, res);
    block_buffering(&images, res);
    segmented(&images, res);
}

fn compression_ratio(images: &[(String, sw_image::ImageU8)], res: usize) {
    println!("-- compression ratio: ours (lossless, window 8) vs LOCO-I/JPEG-LS --\n");
    let rows: Vec<(String, f64, f64)> = sw_pool::global().par_map(images, |(name, img)| {
        let cfg = ArchConfig::builder(8, res)
            .build()
            .expect("related-work config is valid");
        let ours = analyze_frame(img, &cfg).bits_per_pixel();
        let loco = locoi_compressed_bits(img) as f64 / (res * res) as f64;
        (name.clone(), ours, loco)
    });
    let mut table = Vec::new();
    for (name, ours, loco) in &rows {
        table.push(vec![
            name.clone(),
            format!("{ours:.2}"),
            format!("{loco:.2}"),
            format!("{:.2}x", ours / loco),
        ]);
    }
    let ours_mean = summarize(&rows.iter().map(|r| r.1).collect::<Vec<_>>())
        .expect("non-empty table")
        .mean;
    let loco_mean = summarize(&rows.iter().map(|r| r.2).collect::<Vec<_>>())
        .expect("non-empty table")
        .mean;
    table.push(vec![
        "mean".into(),
        format!("{ours_mean:.2}"),
        format!("{loco_mean:.2}"),
        format!("{:.2}x", ours_mean / loco_mean),
    ]);
    println!(
        "{}",
        render(&["scene", "ours bpp", "LOCO-I bpp", "ratio"], &table)
    );
    println!(
        "LOCO-I packs tighter, but needs the full-frame adaptive contexts and a\n\
         6-stage, ~27 MHz pipeline (paper ref [8]); ours compresses one column per\n\
         clock at 230+ MHz and decompresses in-stream. \"Comparable\" holds within\n\
         a factor of ~{:.1}.\n",
        ours_mean / loco_mean
    );
}

fn block_buffering(images: &[(String, sw_image::ImageU8)], res: usize) {
    println!("-- block buffering [5][6] vs line buffers (window 16) --\n");
    let n = 16;
    // Size both approaches to comparable BRAM budgets and compare off-chip
    // traffic per output window.
    let cfg = ArchConfig::builder(n, res)
        .build()
        .expect("related-work config is valid");
    let worst = sw_pool::global()
        .par_map(images, |(_, img)| {
            analyze_frame(img, &cfg).worst_payload_occupancy
        })
        .into_iter()
        .max()
        .unwrap();
    let ours = plan(n, res, worst, MgmtAccounting::Structured);

    let mut rows = Vec::new();
    for b in [n + 1, 2 * n, 4 * n, 8 * n] {
        let p = BlockBufferPlan::new(n, b, res, res);
        rows.push(vec![
            format!("block {b}"),
            p.brams().to_string(),
            format!("{:.2}", p.reads_per_window()),
        ]);
    }
    rows.push(vec![
        "traditional line buffers".into(),
        traditional_brams(n, res).to_string(),
        "1.00".into(),
    ]);
    rows.push(vec![
        "ours (compressed, lossless)".into(),
        ours.total_brams().to_string(),
        "1.00".into(),
    ]);
    println!(
        "{}",
        render(
            &["architecture", "18Kb BRAMs", "off-chip reads / window"],
            &rows
        )
    );
    println!(
        "Block buffering can undercut our BRAM count only by paying multiple\n\
         off-chip reads per window; the compressed line buffers keep the\n\
         streaming-optimal single read.\n"
    );
}

fn segmented(images: &[(String, sw_image::ImageU8)], res: usize) {
    println!("-- segmented processing [7] vs compressed line buffers (window 64) --\n");
    let n = 64;
    let cfg = ArchConfig::builder(n, res)
        .build()
        .expect("related-work config is valid");
    let worst = sw_pool::global()
        .par_map(images, |(_, img)| {
            analyze_frame(img, &cfg).worst_payload_occupancy
        })
        .into_iter()
        .max()
        .unwrap();
    let ours = plan(n, res, worst, MgmtAccounting::Structured);

    let mut rows = Vec::new();
    for s in [res / 4, res / 2, res] {
        if s <= n {
            continue;
        }
        let p = SegmentedPlan::new(n, s, res, res);
        rows.push(vec![
            format!("segment {s}"),
            p.brams().to_string(),
            format!("{:.2}", p.reads_per_pixel()),
            (if p.segments() == 1 { "yes" } else { "no" }).to_string(),
        ]);
    }
    rows.push(vec![
        "ours (compressed, lossless)".into(),
        ours.total_brams().to_string(),
        "1.00".into(),
        "yes".into(),
    ]);
    println!(
        "{}",
        render(
            &[
                "architecture",
                "18Kb BRAMs",
                "reads / pixel",
                "camera streaming"
            ],
            &rows
        )
    );
}
