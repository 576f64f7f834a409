//! Dataset construction and sweep plumbing shared by the binaries.

use std::path::{Path, PathBuf};
use sw_image::{ImageU8, ScenePreset};
use sw_telemetry::TelemetryHandle;

/// Render the first `count` scenes of the dataset at the given resolution,
/// in parallel. Returns `(name, image)` pairs.
pub fn scene_images(width: usize, height: usize, count: usize) -> Vec<(String, ImageU8)> {
    let presets = &ScenePreset::ALL[..count.min(ScenePreset::ALL.len())];
    sw_pool::global().par_map(presets, |p| (p.name.to_string(), p.render(width, height)))
}

/// Whether `--quick` was passed on the command line (reduced dataset for
/// smoke runs / CI).
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parse `--telemetry-out <path>` from the command line. When present the
/// returned handle is enabled and the binary should finish with
/// [`write_telemetry_report`]; otherwise the handle is disabled and every
/// instrument bound from it is a no-op.
///
/// Errs (instead of panicking) when the flag is present without a value,
/// or when the "value" is the next flag.
pub fn telemetry_from_args() -> Result<(TelemetryHandle, Option<PathBuf>), String> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--telemetry-out") {
        Some(i) => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(path) => Ok((TelemetryHandle::new(), Some(PathBuf::from(path)))),
            None => Err(
                "--telemetry-out needs a file path (e.g. --telemetry-out report.json)".to_string(),
            ),
        },
        None => Ok((TelemetryHandle::disabled(), None)),
    }
}

/// Parse `--codec <name>` from the command line. `Ok(None)` when absent
/// (binaries default to the paper's Haar codec); friendly errors for a
/// missing value or an unknown codec name.
pub fn codec_from_args() -> Result<Option<sw_core::codec::LineCodecKind>, String> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--codec") {
        Some(i) => match args.get(i + 1) {
            Some(v) => sw_core::codec::LineCodecKind::parse(v)
                .map(Some)
                .ok_or_else(|| format!("unknown codec '{v}' (raw, haar, haar2, legall, locoi)")),
            None => Err("--codec needs a value (e.g. --codec legall)".to_string()),
        },
        None => Ok(None),
    }
}

/// Parse `--jobs <n>` from the command line. `Ok(None)` when absent;
/// friendly errors for a missing value, `0`, or a non-numeric value.
pub fn jobs_from_args() -> Result<Option<usize>, String> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--jobs") {
        Some(i) => match args.get(i + 1) {
            Some(v) => sw_pool::parse_jobs(v).map(Some),
            None => Err("--jobs needs a value (e.g. --jobs 4)".to_string()),
        },
        None => Ok(None),
    }
}

/// Shared CLI setup for the bench binaries: validate `--jobs` (sizing the
/// global pool the dataset sweeps `par_map` on) and `--telemetry-out`, exiting with a
/// friendly message on malformed flags. Call this before any dataset work
/// so argument errors surface instantly.
pub fn cli_setup() -> (TelemetryHandle, Option<PathBuf>) {
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };
    match jobs_from_args() {
        Ok(Some(jobs)) => {
            if let Err(e) = sw_pool::configure_global(jobs) {
                fail(e);
            }
        }
        Ok(None) => {}
        Err(e) => fail(e),
    }
    match telemetry_from_args() {
        Ok(pair) => pair,
        Err(e) => fail(e),
    }
}

/// Write the handle's metrics report as JSON — the same schema that
/// `swc --metrics-out` emits, so one consumer parses both.
pub fn write_telemetry_report(telemetry: &TelemetryHandle, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, telemetry.report().to_json())?;
    eprintln!("wrote telemetry report: {}", path.display());
    Ok(())
}

/// A sweep configuration: which resolutions and how many scenes.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Number of dataset scenes to use (paper: 10).
    pub scenes: usize,
    /// Evaluate the expensive 3840-wide resolution.
    pub include_3840: bool,
    /// Square-image resolution used for Figure 13 (paper: 2048).
    pub fig13_resolution: usize,
}

impl Sweep {
    /// The paper's full evaluation.
    pub fn full() -> Self {
        Self {
            scenes: 10,
            include_3840: true,
            fig13_resolution: 2048,
        }
    }

    /// Reduced smoke-run settings.
    pub fn quick() -> Self {
        Self {
            scenes: 3,
            include_3840: false,
            fig13_resolution: 512,
        }
    }

    /// Selected by `--quick`.
    pub fn from_args() -> Self {
        if quick_flag() {
            Self::quick()
        } else {
            Self::full()
        }
    }

    /// The table widths to evaluate.
    pub fn widths(&self) -> Vec<usize> {
        let mut w = vec![512, 1024, 2048];
        if self.include_3840 {
            w.push(3840);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_images_renders_named_scenes() {
        let imgs = scene_images(32, 16, 2);
        assert_eq!(imgs.len(), 2);
        assert_eq!(imgs[0].0, "forest_path");
        assert_eq!(imgs[0].1.width(), 32);
    }

    #[test]
    fn telemetry_defaults_to_disabled_without_the_flag() {
        let (tele, path) = telemetry_from_args().expect("no flag, no error");
        assert!(!tele.is_enabled());
        assert!(path.is_none());
    }

    #[test]
    fn jobs_defaults_to_none_without_the_flag() {
        assert_eq!(jobs_from_args(), Ok(None));
    }

    #[test]
    fn telemetry_report_lands_on_disk() {
        let tele = TelemetryHandle::new();
        tele.counter("bench.runs").inc();
        let path = std::env::temp_dir().join(format!("sw_runner_tele_{}.json", std::process::id()));
        write_telemetry_report(&tele, &path).unwrap();
        let report =
            sw_telemetry::Report::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.counters["bench.runs"], 1);
    }

    #[test]
    fn sweep_presets() {
        assert_eq!(Sweep::full().scenes, 10);
        assert_eq!(Sweep::quick().widths(), vec![512, 1024, 2048]);
        assert!(Sweep::full().widths().contains(&3840));
    }
}
