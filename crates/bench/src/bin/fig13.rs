//! Figure 13 — percentage of memory savings with 90 % confidence
//! intervals, versus window size and threshold, at 2048×2048.
//!
//! ```text
//! cargo run --release -p sw-bench --bin fig13 [--quick] [--telemetry-out <path>]
//! ```

use sw_bench::export::{out_dir_from_args, write_csv, write_svg, ChartMeta, Series};
use sw_bench::table::render;
use sw_bench::{
    analyze_dataset, cli_setup, paper, savings_summary, scene_images, write_telemetry_report,
    Sweep, THRESHOLDS, WINDOWS,
};
use sw_core::config::ThresholdPolicy;

fn main() {
    let (tele, tele_path) = cli_setup();
    let sweep = Sweep::from_args();
    let res = sweep.fig13_resolution;
    eprintln!("rendering {} scenes at {res}x{res}...", sweep.scenes);
    let images = scene_images(res, res, sweep.scenes);

    println!(
        "Figure 13 — memory saving % (mean ± 90% CI over {} scenes) @ {res}x{res}\n",
        sweep.scenes
    );
    let mut rows = Vec::new();
    let mut series: Vec<Series> = THRESHOLDS
        .iter()
        .map(|t| Series {
            name: format!("T={t}"),
            points: Vec::new(),
        })
        .collect();
    let mut lossless_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut t6_range = (f64::INFINITY, f64::NEG_INFINITY);
    for &n in &WINDOWS {
        if n >= res {
            continue;
        }
        let mut row = vec![n.to_string()];
        for &t in &THRESHOLDS {
            let _span = tele.profile_span(&format!("fig13.n{n}.t{t}"));
            let analyses = analyze_dataset(&images, n, t, ThresholdPolicy::DetailsOnly);
            let s = savings_summary(&analyses).expect("non-empty dataset");
            tele.counter("fig13.frames_analyzed")
                .add(analyses.len() as u64);
            row.push(format!("{:.1} ± {:.1}", s.mean, s.ci90_half_width));
            series[THRESHOLDS.iter().position(|&x| x == t).unwrap()]
                .points
                .push((n as f64, s.mean));
            if t == 0 {
                lossless_range = (lossless_range.0.min(s.mean), lossless_range.1.max(s.mean));
            }
            if t == 6 {
                t6_range = (t6_range.0.min(s.mean), t6_range.1.max(s.mean));
            }
        }
        rows.push(row);
    }
    println!("{}", render(&["window", "T=0", "T=2", "T=4", "T=6"], &rows));

    println!(
        "measured lossless saving range: {:.0}–{:.0}%   (paper: {:.0}–{:.0}%)",
        lossless_range.0,
        lossless_range.1,
        paper::FIG13_LOSSLESS_BAND.0,
        paper::FIG13_LOSSLESS_BAND.1
    );
    println!(
        "measured T=6 saving range:      {:.0}–{:.0}%   (paper: {:.0}–{:.0}%)",
        t6_range.0,
        t6_range.1,
        paper::FIG13_T6_BAND.0,
        paper::FIG13_T6_BAND.1
    );

    if let Some(dir) = out_dir_from_args() {
        let csv = dir.join("fig13.csv");
        let svg = dir.join("fig13.svg");
        write_csv(&csv, &series).expect("write fig13.csv");
        write_svg(
            &svg,
            &ChartMeta {
                title: format!("Figure 13 - memory saving % @ {res}x{res}"),
                x_label: "window size".into(),
                y_label: "saving %".into(),
            },
            &series,
        )
        .expect("write fig13.svg");
        println!("wrote {} and {}", csv.display(), svg.display());
    }
    if let Some(path) = tele_path {
        write_telemetry_report(&tele, &path).expect("write telemetry report");
    }
}
