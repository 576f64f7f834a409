//! Evaluation harness: regenerates every table and figure of the paper's
//! Section VI (see `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results).
//!
//! Binaries (all support `--quick` for a reduced dataset):
//!
//! | binary      | artifact |
//! |-------------|----------|
//! | `fig3`      | Figure 3 — buffered Kbits per sub-band vs window position |
//! | `fig13`     | Figure 13 — % memory saving with 90 % CIs |
//! | `tables`    | Tables I–V (BRAM counts) and VI–X (resources) |
//! | `mse`       | MSE vs threshold (paper: 0.59 / 3.2 / 4.8) |
//! | `ablations` | E15–E18: levels, 5/3 wavelet, NBits granularity, policy |
//! | `all`       | everything above in sequence |
//!
//! Criterion benches (`cargo bench -p sw-bench`): transform, packing,
//! architecture throughput, analyzer cost, and the full Figure 13 sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod paper;
pub mod perf;
pub mod runner;
pub mod table;

pub use runner::{
    cli_setup, codec_from_args, jobs_from_args, quick_flag, scene_images, telemetry_from_args,
    write_telemetry_report, Sweep,
};

use sw_core::analysis::{analyze_frame, FrameAnalysis};
use sw_core::config::{ArchConfig, ThresholdPolicy};
use sw_core::stats::{summarize, Summary};
use sw_image::ImageU8;

/// The paper's evaluation grid.
pub const WINDOWS: [usize; 5] = [8, 16, 32, 64, 128];
/// The paper's threshold set.
pub const THRESHOLDS: [i16; 4] = [0, 2, 4, 6];
/// The paper's image widths (Tables I–V).
pub const WIDTHS: [usize; 4] = [512, 1024, 2048, 3840];

/// Analyze every image of a dataset under one configuration, in parallel.
pub fn analyze_dataset(
    images: &[(String, ImageU8)],
    window: usize,
    threshold: i16,
    policy: ThresholdPolicy,
) -> Vec<FrameAnalysis> {
    sw_pool::global().par_map(images, |(_, img)| {
        let cfg = ArchConfig::builder(window, img.width())
            .threshold(threshold)
            .policy(policy)
            .build()
            .expect("dataset analysis config is valid");
        analyze_frame(img, &cfg)
    })
}

/// Summary of memory savings across a dataset (the Figure 13 statistic).
/// `None` when `analyses` is empty.
pub fn savings_summary(analyses: &[FrameAnalysis]) -> Option<Summary> {
    let savings: Vec<f64> = analyses.iter().map(|a| a.saving_pct()).collect();
    summarize(&savings)
}

/// Worst-case payload occupancy across a dataset (what the BRAM planner
/// must provision for — Tables II–V).
pub fn worst_occupancy(analyses: &[FrameAnalysis]) -> u64 {
    analyses
        .iter()
        .map(|a| a.worst_payload_occupancy)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_analysis_runs_in_parallel_and_agrees_with_serial() {
        let images = scene_images(64, 64, 3);
        let par = analyze_dataset(&images, 8, 0, ThresholdPolicy::DetailsOnly);
        assert_eq!(par.len(), 3);
        for ((_, img), a) in images.iter().zip(&par) {
            let cfg = ArchConfig::builder(8, img.width()).build().unwrap();
            assert_eq!(a, &analyze_frame(img, &cfg));
        }
    }

    #[test]
    fn savings_summary_aggregates() {
        let images = scene_images(64, 64, 4);
        let analyses = analyze_dataset(&images, 8, 0, ThresholdPolicy::DetailsOnly);
        let s = savings_summary(&analyses).unwrap();
        assert_eq!(s.n, 4);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(worst_occupancy(&analyses) > 0);
        assert!(savings_summary(&[]).is_none());
    }
}
