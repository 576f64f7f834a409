//! Image substrate for the modified sliding window architecture.
//!
//! Provides the grayscale image container, quality metrics (MSE/PSNR — the
//! paper reports MSEs of 0.59/3.2/4.8 for thresholds 2/4/6), PGM I/O, and —
//! most importantly — the **synthetic natural-scene dataset** that stands in
//! for the paper's 10 images from the MIT Places database (Section VI-A,
//! Figure 12), which we cannot redistribute. See `DESIGN.md` §4 for why the
//! substitution preserves the evaluation's behaviour: all of the paper's
//! memory numbers are driven by natural-image *wavelet statistics* (smooth
//! low-frequency content, small detail coefficients), which multi-octave
//! value noise reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod metrics;
pub mod pgm;
pub mod rgb;
pub mod stats;
pub mod synth;
pub mod video;

pub use image::ImageU8;
pub use metrics::{max_abs_error, mean, mse, psnr};
pub use rgb::ImageRgb;
pub use synth::{dataset, degenerate_suite, SceneKind, ScenePreset};
