//! The modified (compressed) sliding window architecture
//! (paper Section V, Figure 4).
//!
//! Data path, one input pixel per clock:
//!
//! 1. the active window shifts; its oldest column (the paper's "right-most",
//!    image-wise the leftmost) exits into the **IWT**, which pairs it with
//!    the previously exited column and emits two decomposed columns —
//!    even `(LL, LH)` and odd `(HL, HH)`;
//! 2. each sub-band column is thresholded and **bit-packed** (NBits +
//!    BitMap + packed payload — the real bytes, via the `sw-bitstream`
//!    column codec, which is bit-exact with the register-level hardware
//!    models);
//! 3. the packed record rides the **memory unit** for exactly `W − N`
//!    cycles (the same delay the traditional FIFOs provide);
//! 4. on exit it is **bit-unpacked** and run through the **inverse IWT**;
//!    the reconstructed raw column re-enters the window one row down, its
//!    oldest pixel retiring.
//!
//! A buffered pixel therefore makes `N − 1` trips through the compressor:
//! in lossy mode the error *compounds*, which this model reproduces
//! faithfully (the paper does not discuss this; see `EXPERIMENTS.md` E8 for
//! measurements of both compounded and single-pass error).
//!
//! In lossless mode (`T = 0`) the output is **bit-identical** to the
//! traditional architecture — the integration tests prove it kernel by
//! kernel.
//!
//! Since the codec-layer refactor this is [`SlidingWindow`] instantiated
//! with [`HaarIwtCodec`] (group width two: the IWT pairs exiting columns).
//! The aliases below keep the original API; the tests in this module pin
//! the datapath, stats, and telemetry series byte-for-byte against the
//! stand-alone implementation this file used to contain.

use crate::arch::SlidingWindow;
use crate::codec::HaarIwtCodec;

/// The compressed sliding window architecture: the unified datapath with
/// the paper's Haar IWT codec.
pub type CompressedSlidingWindow = SlidingWindow<HaarIwtCodec>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchConfig, ThresholdPolicy};
    use crate::kernels::{BoxFilter, GaussianFilter, Tap};
    use crate::reference::direct_sliding_window;
    use crate::traditional::TraditionalSlidingWindow;
    use sw_image::{mse, ImageU8};

    fn test_image(w: usize, h: usize) -> ImageU8 {
        // Smooth base + mild texture: compresses but not trivially.
        ImageU8::from_fn(w, h, |x, y| {
            let smooth = 96.0
                + 64.0 * ((x as f64 / w as f64) * 3.1).sin()
                + 48.0 * ((y as f64 / h as f64) * 2.3).cos();
            let texture = ((x * 7 + y * 13) % 5) as f64;
            (smooth + texture).clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn lossless_matches_traditional_exactly() {
        for n in [4usize, 6, 8] {
            let img = test_image(32, 20);
            let kernel = BoxFilter::new(n);
            let cfg = ArchConfig::new(n, 32);
            let mut comp = CompressedSlidingWindow::new(cfg);
            let mut trad = TraditionalSlidingWindow::new(cfg);
            let a = comp.process_frame(&img, &kernel).unwrap();
            let b = trad.process_frame(&img, &kernel).unwrap();
            assert_eq!(a.image, b.image, "window {n}");
            assert_eq!(a.stats.cycles, b.stats.cycles);
        }
    }

    #[test]
    fn lossless_matches_direct_reference() {
        let img = test_image(40, 24);
        let kernel = GaussianFilter::new(8);
        let mut comp = CompressedSlidingWindow::new(ArchConfig::new(8, 40));
        let got = comp.process_frame(&img, &kernel).unwrap();
        assert_eq!(got.image, direct_sliding_window(&img, &kernel));
    }

    #[test]
    fn lossless_tap_roundtrips_raw_pixels() {
        // The top-left tap reads pixels that made N−1 compression trips:
        // lossless mode must return them exactly.
        let img = test_image(33, 17);
        let kernel = Tap::top_left(4);
        let mut comp = CompressedSlidingWindow::new(ArchConfig::new(4, 33));
        let got = comp.process_frame(&img, &kernel).unwrap();
        assert_eq!(got.image, direct_sliding_window(&img, &kernel));
    }

    #[test]
    fn lossy_mse_behaviour() {
        // The recirculating datapath compounds loss, so the MSE is not
        // strictly monotone between nearby thresholds; verify the robust
        // facts: lossless is exact, lossy is not, and T=2 is far better
        // than the higher thresholds.
        let img = test_image(64, 48);
        let n = 8;
        let run = |t: i16| {
            let cfg = ArchConfig::new(n, 64).with_threshold(t);
            let mut comp = CompressedSlidingWindow::new(cfg);
            let got = comp.process_frame(&img, &Tap::top_left(n)).unwrap();
            let expect = img.crop(0, 0, got.image.width(), got.image.height());
            mse(&got.image, &expect)
        };
        assert_eq!(run(0), 0.0, "lossless must be exact");
        let (m2, m4, m6) = (run(2), run(4), run(6));
        assert!(m2 > 0.0, "T=2 must be lossy");
        assert!(m2 < m4, "T=2 ({m2:.2}) must beat T=4 ({m4:.2})");
        assert!(m2 < m6, "T=2 ({m2:.2}) must beat T=6 ({m6:.2})");
    }

    #[test]
    fn lossy_reduces_peak_occupancy() {
        let img = test_image(64, 48);
        let occupancy = |t: i16| {
            let cfg = ArchConfig::new(8, 64).with_threshold(t);
            let mut comp = CompressedSlidingWindow::new(cfg);
            comp.process_frame(&img, &BoxFilter::new(8))
                .unwrap()
                .stats
                .peak_payload_occupancy
        };
        assert!(occupancy(6) < occupancy(0), "T=6 must compress harder");
    }

    #[test]
    fn flat_image_has_near_zero_detail_bits() {
        let img = ImageU8::filled(48, 32, 123);
        let mut comp = CompressedSlidingWindow::new(ArchConfig::new(8, 48));
        let got = comp.process_frame(&img, &BoxFilter::new(8)).unwrap();
        let [ll, lh, hl, hh] = got.stats.per_band_bits_total;
        // Warmup columns mix power-on zeros with the flat value, so a small
        // amount of detail energy exists; steady state contributes none.
        assert!(ll > 0, "LL still carries data");
        assert!(
            (lh + hl + hh) as f64 <= ll as f64 * 0.05,
            "details {lh}+{hl}+{hh} should be warmup-only vs LL {ll}"
        );
    }

    #[test]
    fn saving_is_positive_on_smooth_images() {
        let img = test_image(128, 64);
        let mut comp = CompressedSlidingWindow::new(ArchConfig::new(8, 128));
        let got = comp.process_frame(&img, &BoxFilter::new(8)).unwrap();
        let saving = got.stats.memory_saving_pct();
        assert!(
            saving > 5.0,
            "smooth image should save >5%, got {saving:.1}%"
        );
    }

    #[test]
    fn overflow_events_fire_on_random_frames_with_tight_budget() {
        // The paper's limitation: "in cases of bad frames or random images,
        // the compression ratio will be very low and the size of the packed
        // bits will be greater than the available BRAMs."
        let mut state = 1u32;
        let img = ImageU8::from_fn(64, 32, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 24) as u8
        });
        // Budget sized for a *smooth* frame.
        let smooth = test_image(64, 32);
        let cfg = ArchConfig::new(8, 64);
        let mut probe = CompressedSlidingWindow::new(cfg);
        let budget = probe
            .process_frame(&smooth, &BoxFilter::new(8))
            .unwrap()
            .stats
            .peak_payload_occupancy;
        let mut comp = CompressedSlidingWindow::new(cfg).with_capacity_bits(budget);
        let got = comp.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert!(got.stats.overflow_events > 0, "random frame must overflow");
        // And the smooth frame itself must not.
        let mut comp = CompressedSlidingWindow::new(cfg).with_capacity_bits(budget);
        let got = comp.process_frame(&smooth, &BoxFilter::new(8)).unwrap();
        assert_eq!(got.stats.overflow_events, 0);
    }

    #[test]
    fn all_subbands_policy_is_lossier_but_smaller() {
        let img = test_image(64, 48);
        let run = |policy: ThresholdPolicy| {
            let cfg = ArchConfig::new(8, 64).with_threshold(6).with_policy(policy);
            let mut comp = CompressedSlidingWindow::new(cfg);
            let got = comp.process_frame(&img, &Tap::top_left(8)).unwrap();
            let expect = img.crop(0, 0, got.image.width(), got.image.height());
            (got.stats.peak_payload_occupancy, mse(&got.image, &expect))
        };
        let (bits_d, mse_d) = run(ThresholdPolicy::DetailsOnly);
        let (bits_a, mse_a) = run(ThresholdPolicy::AllSubbands);
        assert!(bits_a <= bits_d, "thresholding LL can only shrink payload");
        assert!(mse_a >= mse_d, "thresholding LL can only hurt quality");
    }

    #[test]
    fn telemetry_reports_stage_and_fifo_series() {
        let img = test_image(32, 20);
        let t = sw_telemetry::TelemetryHandle::new();
        let cfg = ArchConfig::new(4, 32).with_threshold(2);
        let mut comp = CompressedSlidingWindow::new(cfg).with_named_telemetry(&t, "s0");
        let out = comp.process_frame(&img, &BoxFilter::new(4)).unwrap();

        let r = t.report();
        assert_eq!(r.counters["stage.s0.cycles"], out.stats.cycles);
        assert_eq!(r.counters["stage.s0.window_shifts"], 32 * 20);
        assert!(r.counters["stage.s0.iwt_pairs"] > 0);
        assert_eq!(
            r.counters["stage.s0.iwt_pairs"],
            r.counters["stage.s0.packer.columns"] / 4,
            "four sub-band columns per pair"
        );
        assert_eq!(
            r.counters["stage.s0.packer.payload_bits"], out.stats.payload_bits_total,
            "codec telemetry must agree with frame stats"
        );
        assert_eq!(r.gauges["stage.s0.threshold"], 2);
        assert_eq!(
            r.gauges["fifo.s0.high_water_bits"], out.stats.peak_payload_occupancy,
            "telemetry high-water must equal the stats watermark"
        );
        assert!(r.histograms["fifo.s0.occupancy_bits"].count > 0);
        // The trace saw frame boundaries and pack events.
        assert!(t.trace_len() > 2);
        let mut buf = Vec::new();
        t.write_trace_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"event\":\"frame_start\""));
        assert!(text.contains("\"event\":\"pack\""));
        assert!(text.contains("\"event\":\"unpack\""));
    }

    #[test]
    fn telemetry_disabled_changes_nothing() {
        let img = test_image(32, 20);
        let cfg = ArchConfig::new(4, 32).with_threshold(2);
        let mut plain = CompressedSlidingWindow::new(cfg);
        let mut wired = CompressedSlidingWindow::new(cfg)
            .with_telemetry(&sw_telemetry::TelemetryHandle::disabled());
        let a = plain.process_frame(&img, &BoxFilter::new(4)).unwrap();
        let b = wired.process_frame(&img, &BoxFilter::new(4)).unwrap();
        assert_eq!(a.image, b.image);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn reusable_across_frames() {
        let kernel = BoxFilter::new(4);
        let cfg = ArchConfig::new(4, 24);
        let mut comp = CompressedSlidingWindow::new(cfg);
        let a = test_image(24, 12);
        let b = ImageU8::from_fn(24, 12, |x, y| ((x * y) % 256) as u8);
        comp.process_frame(&a, &kernel).unwrap();
        let second = comp.process_frame(&b, &kernel).unwrap();
        assert_eq!(second.image, direct_sliding_window(&b, &kernel));
    }
}

#[cfg(test)]
mod coeff_mode_tests {
    use super::*;
    use crate::config::{ArchConfig, CoeffMode};
    use crate::kernels::Tap;
    use crate::reference::direct_sliding_window;
    use sw_image::{max_abs_error, ImageU8};

    fn natural(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| {
            (110.0 + 80.0 * ((x as f64) * 0.07).sin() + 40.0 * ((y as f64) * 0.05).cos())
                .clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn saturating_mode_is_exact_on_natural_content_after_warmup() {
        // Natural detail coefficients stay far below ±128, so the 8-bit
        // datapath changes nothing — except during warmup, where real
        // pixels pair vertically with power-on zeros (details ≈ ±pixel,
        // which clip). That first-row artifact is genuine 8-bit-datapath
        // behaviour; below it the two modes are identical.
        let img = natural(48, 24);
        let n = 8;
        let kernel = Tap::top_left(n);
        let exact = {
            let mut a = CompressedSlidingWindow::new(ArchConfig::new(n, 48));
            a.process_frame(&img, &kernel).unwrap().image
        };
        let sat = {
            let cfg = ArchConfig::new(n, 48).with_coeff_mode(CoeffMode::Saturating8);
            let mut a = CompressedSlidingWindow::new(cfg);
            a.process_frame(&img, &kernel).unwrap().image
        };
        assert_eq!(exact, direct_sliding_window(&img, &kernel));
        let (w, h) = (exact.width(), exact.height());
        assert_eq!(
            exact.crop(0, 1, w, h - 1),
            sat.crop(0, 1, w, h - 1),
            "steady-state rows must be identical"
        );
        assert_ne!(
            exact.row(0),
            sat.row(0),
            "warmup clipping is expected on the first output row"
        );
    }

    #[test]
    fn saturating_mode_clips_extreme_detail() {
        // A checkerboard drives HH to ±510: the 8-bit datapath must clip,
        // so "lossless" is no longer lossless — exactly the failure mode
        // DESIGN.md predicts for a literal 8-bit reading of the paper.
        let img = ImageU8::from_fn(32, 16, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
        let n = 4;
        let kernel = Tap::top_left(n);
        let reference = direct_sliding_window(&img, &kernel);
        let exact = {
            let mut a = CompressedSlidingWindow::new(ArchConfig::new(n, 32));
            a.process_frame(&img, &kernel).unwrap().image
        };
        assert_eq!(exact, reference, "exact mode survives the checkerboard");
        let sat = {
            let cfg = ArchConfig::new(n, 32).with_coeff_mode(CoeffMode::Saturating8);
            let mut a = CompressedSlidingWindow::new(cfg);
            a.process_frame(&img, &kernel).unwrap().image
        };
        assert!(
            max_abs_error(&sat, &reference) > 50,
            "8-bit datapath must clip hard on the checkerboard"
        );
    }

    #[test]
    fn saturating_mode_never_stores_wide_details() {
        let img = ImageU8::from_fn(32, 16, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
        let cfg = ArchConfig::new(4, 32).with_coeff_mode(CoeffMode::Saturating8);
        let mut a = CompressedSlidingWindow::new(cfg);
        let out = a.process_frame(&img, &Tap::top_left(4)).unwrap();
        // Details clamp to 8 bits; LL still needs up to 9. Per 4 pixels:
        // <= 9 + 3×8 bits.
        let max_bpp = (9.0 + 3.0 * 8.0) / 4.0;
        let cols = (32 - 4) as f64; // steady-state columns in flight
        let peak_bpp = out.stats.peak_payload_occupancy as f64 / (cols * 4.0);
        assert!(
            peak_bpp <= max_bpp + 0.5,
            "peak {peak_bpp:.2} bpp exceeds the 8-bit datapath bound {max_bpp:.2}"
        );
    }
}
