//! Two-level streaming compressed sliding window — the extension the paper
//! declined ("adding more levels complicates the architecture for both the
//! forward and inverse wavelet transform blocks", Section IV-C).
//!
//! The offline ablation (experiment E15) shows a second decomposition level
//! removes a further ~14 points of memory on our dataset, because the LL
//! band dominates the payload. This architecture pays the complexity the
//! paper avoided and implements the second level *in-stream*:
//!
//! * level 1 works exactly as in [`crate::compressed`]: exiting window
//!   columns pair up into (LL₁,LH₁)/(HL₁,HH₁) columns;
//! * the LL₁ column stream (one per two image columns, height N/2) feeds a
//!   second transformer, so every **four** image columns complete a quad:
//!   six level-1 detail columns plus the four level-2 sub-band columns of
//!   their LL₁ halves;
//! * the memory unit stores quads; the read side reverses both levels.
//!
//! The paper's complexity claim is visible in the code itself: the quad
//! pipeline needs 4-column batching, two transformer pairs, and a deeper
//! minimum image width (`W ≥ N + 4`) — versus one pair and `W ≥ N + 2` for
//! the single-level design. The tests quantify what that buys.
//!
//! Since the codec-layer refactor this is [`SlidingWindow`] instantiated
//! with [`HaarTwoLevelCodec`] (group width four). One deliberate behaviour
//! change rode along: a quad's payload now retires from the occupancy count
//! when its *last* column is consumed (previously the first), matching the
//! retirement rule every codec shares; peak occupancy moves by under 2% and
//! the margin-based tests below still pin the E15 claim.

use crate::arch::SlidingWindow;
use crate::codec::HaarTwoLevelCodec;

/// The two-level streaming architecture: the unified datapath with the
/// two-level Haar codec.
pub type TwoLevelCompressedSlidingWindow = SlidingWindow<HaarTwoLevelCodec>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedSlidingWindow;
    use crate::config::ArchConfig;
    use crate::kernels::{BoxFilter, Tap};
    use crate::reference::direct_sliding_window;
    use crate::traditional::TraditionalSlidingWindow;
    use sw_image::{mse, ImageU8, ScenePreset};

    fn test_image(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| {
            let s = 100.0
                + 70.0 * ((x as f64 / w as f64) * 2.9).sin()
                + 50.0 * ((y as f64 / h as f64) * 2.1).cos()
                + ((x * 5 + y * 11) % 7) as f64;
            s.clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn lossless_matches_traditional_exactly() {
        for n in [4usize, 8] {
            let img = test_image(40, 24);
            let cfg = ArchConfig::new(n, 40);
            let kernel = BoxFilter::new(n);
            let mut two = TwoLevelCompressedSlidingWindow::new(cfg);
            let mut trad = TraditionalSlidingWindow::new(cfg);
            assert_eq!(
                two.process_frame(&img, &kernel).unwrap().image,
                trad.process_frame(&img, &kernel).unwrap().image,
                "window {n}"
            );
        }
    }

    #[test]
    fn lossless_datapath_is_exact() {
        let img = test_image(37, 21); // odd geometry
        let cfg = ArchConfig::new(4, 37);
        let kernel = Tap::top_left(4);
        let mut two = TwoLevelCompressedSlidingWindow::new(cfg);
        assert_eq!(
            two.process_frame(&img, &kernel).unwrap().image,
            direct_sliding_window(&img, &kernel)
        );
    }

    #[test]
    fn second_level_reduces_occupancy_on_scenes() {
        // The E15 claim, now measured in-architecture: level 2 compresses
        // the dominant LL band.
        let img = ScenePreset::ALL[1].render(256, 64);
        let cfg = ArchConfig::new(8, 256);
        let mut one = CompressedSlidingWindow::new(cfg);
        let mut two = TwoLevelCompressedSlidingWindow::new(cfg);
        let kernel = BoxFilter::new(8);
        let p1 = one
            .process_frame(&img, &kernel)
            .unwrap()
            .stats
            .peak_payload_occupancy;
        let p2 = two
            .process_frame(&img, &kernel)
            .unwrap()
            .stats
            .peak_payload_occupancy;
        assert!(
            (p2 as f64) < (p1 as f64) * 0.9,
            "two-level {p2} should beat single-level {p1} by >10%"
        );
    }

    #[test]
    fn lossy_mode_degrades_gracefully() {
        let img = test_image(64, 32);
        let n = 8;
        for t in [2i16, 6] {
            let cfg = ArchConfig::new(n, 64).with_threshold(t);
            let mut two = TwoLevelCompressedSlidingWindow::new(cfg);
            let out = two.process_frame(&img, &Tap::top_left(n)).unwrap();
            let crop = img.crop(0, 0, out.image.width(), out.image.height());
            let e = mse(&out.image, &crop);
            assert!(e > 0.0, "T={t} must be lossy");
            assert!(e < 60.0, "T={t}: MSE {e:.1} out of control");
        }
        // And T=0 stays exact.
        let cfg = ArchConfig::new(n, 64);
        let mut two = TwoLevelCompressedSlidingWindow::new(cfg);
        let out = two.process_frame(&img, &Tap::top_left(n)).unwrap();
        let crop = img.crop(0, 0, out.image.width(), out.image.height());
        assert_eq!(mse(&out.image, &crop), 0.0);
    }

    #[test]
    fn management_overhead_is_higher_than_single_level() {
        let cfg = ArchConfig::new(8, 64);
        let two = TwoLevelCompressedSlidingWindow::new(cfg);
        assert!(two.management_bits() > cfg.management_bits());
    }

    #[test]
    fn reusable_across_frames() {
        let cfg = ArchConfig::new(4, 24);
        let kernel = BoxFilter::new(4);
        let mut two = TwoLevelCompressedSlidingWindow::new(cfg);
        let a = test_image(24, 12);
        let b = ImageU8::from_fn(24, 12, |x, y| ((x * y + 3) % 256) as u8);
        two.process_frame(&a, &kernel).unwrap();
        assert_eq!(
            two.process_frame(&b, &kernel).unwrap().image,
            direct_sliding_window(&b, &kernel)
        );
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn window_must_be_multiple_of_four() {
        TwoLevelCompressedSlidingWindow::new(ArchConfig::new(6, 64));
    }
}
