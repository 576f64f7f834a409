//! The traditional line-buffering sliding window architecture
//! (paper Section III, Figure 1).
//!
//! `N − 1` row FIFOs of raw pixels feed an N×N shift-register window. The
//! architecture has three phases — fill, process, drain — which the
//! streaming model reproduces implicitly: outputs are only emitted once the
//! window is fully inside the image, and a frame is fully processed after
//! exactly `H × W` clock cycles (one input pixel per clock).
//!
//! Since the codec-layer refactor this is [`SlidingWindow`] instantiated
//! with the identity codec [`RawCodec`]: a group width of one column whose
//! "encoding" stores the `N − 1` recirculating pixels verbatim, so the
//! memory unit *is* the raw line buffer. The aliases below keep the
//! original API; the tests in this module pin the datapath and telemetry
//! against the stand-alone implementation this file used to contain.

use crate::arch::SlidingWindow;
use crate::codec::RawCodec;

/// The traditional architecture: the unified datapath with the identity
/// codec.
pub type TraditionalSlidingWindow = SlidingWindow<RawCodec>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::kernels::{BoxFilter, MedianFilter, Tap};
    use crate::reference::direct_sliding_window;
    use sw_image::ImageU8;

    fn test_image(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| ((x * 7 + y * 13 + (x * y) % 5) % 256) as u8)
    }

    #[test]
    fn matches_direct_reference_box() {
        let img = test_image(24, 16);
        let kernel = BoxFilter::new(4);
        let mut arch = TraditionalSlidingWindow::new(ArchConfig::new(4, 24));
        let got = arch.process_frame(&img, &kernel).unwrap();
        let expect = direct_sliding_window(&img, &kernel);
        assert_eq!(got.image, expect);
        assert_eq!(got.stats.cycles, 24 * 16);
    }

    #[test]
    fn matches_direct_reference_median_various_windows() {
        for n in [2usize, 4, 6, 8] {
            let img = test_image(20, 20);
            let kernel = MedianFilter::new(n);
            let mut arch = TraditionalSlidingWindow::new(ArchConfig::new(n, 20));
            let got = arch.process_frame(&img, &kernel).unwrap();
            let expect = direct_sliding_window(&img, &kernel);
            assert_eq!(got.image, expect, "window {n}");
        }
    }

    #[test]
    fn tap_verifies_exact_data_path() {
        // The tap kernel exposes raw buffered pixels: any off-by-one in the
        // FIFO delay shows up immediately.
        let img = test_image(17, 11); // deliberately odd sizes
        let kernel = Tap::top_left(4);
        let mut arch = TraditionalSlidingWindow::new(ArchConfig::new(4, 17));
        let got = arch.process_frame(&img, &kernel).unwrap();
        let expect = direct_sliding_window(&img, &kernel);
        assert_eq!(got.image, expect);
    }

    #[test]
    fn narrowest_legal_image_works() {
        // W = N + 1: FIFO delay of exactly one cycle.
        let img = test_image(5, 9);
        let kernel = BoxFilter::new(4);
        let mut arch = TraditionalSlidingWindow::new(ArchConfig::new(4, 5));
        let got = arch.process_frame(&img, &kernel).unwrap();
        assert_eq!(got.image, direct_sliding_window(&img, &kernel));
    }

    #[test]
    fn reusable_across_frames() {
        let kernel = BoxFilter::new(4);
        let mut arch = TraditionalSlidingWindow::new(ArchConfig::new(4, 16));
        let a = test_image(16, 12);
        let b = ImageU8::from_fn(16, 12, |x, y| (x * y % 251) as u8);
        let first = arch.process_frame(&a, &kernel).unwrap();
        let second = arch.process_frame(&b, &kernel).unwrap();
        assert_eq!(second.image, direct_sliding_window(&b, &kernel));
        assert_eq!(first.image, direct_sliding_window(&a, &kernel));
    }

    #[test]
    fn telemetry_high_water_matches_steady_state_occupancy() {
        let t = sw_telemetry::TelemetryHandle::new();
        let img = test_image(24, 16);
        let cfg = ArchConfig::new(4, 24);
        let mut arch = TraditionalSlidingWindow::new(cfg).with_named_telemetry(&t, "base");
        let out = arch.process_frame(&img, &BoxFilter::new(4)).unwrap();
        let r = t.report();
        assert_eq!(r.counters["stage.base.cycles"], out.stats.cycles);
        // Steady state fills every FIFO: occupancy equals the raw span.
        assert_eq!(
            r.gauges["fifo.base.high_water_bits"],
            out.stats.raw_buffer_bits
        );
        assert_eq!(
            r.histograms["fifo.base.occupancy_bits"].count,
            out.stats.cycles
        );
    }

    #[test]
    fn buffer_bits_match_formula() {
        let arch = TraditionalSlidingWindow::new(ArchConfig::new(8, 512));
        let img = test_image(512, 16);
        let mut arch2 = arch.clone();
        let out = arch2.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert_eq!(out.stats.raw_buffer_bits, (512 - 8) * 7 * 8);
        // The raw codec saves nothing by construction.
        assert_eq!(out.stats.peak_total_occupancy, out.stats.raw_buffer_bits);
    }
}
