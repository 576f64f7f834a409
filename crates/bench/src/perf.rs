//! `swc bench` engine: the kernel × codec performance matrix, a stable
//! JSON schema for checked-in `BENCH_<date>.json` trajectories, and the
//! `--compare` regression gate.
//!
//! Each **cell** is one `(kernel, codec, mode)` triple — mode `seq` runs
//! the unsharded datapath, mode `par` the halo-sharded runner on a thread
//! pool. Throughput frames run with telemetry *disabled* (the production
//! configuration); [`PROFILED_FRAMES`] extra frames per cell run with the
//! hierarchical profiler enabled, and the fastest one's profile is the
//! `stage_breakdown` (its root total is the cell's `profiled_ns`). A
//! profile is only worth reading if its probes do not distort the frame:
//! [`probe_distortion`] is the median `profiled_ns ÷ p50_ns` over `seq`
//! cells, and a full run fails past [`MAX_PROBE_DISTORTION`]. Because the
//! profiler attributes every nanosecond of a parent span to exactly one
//! child (or to the parent's self time), a `seq` cell's `self_ns`
//! column sums to the root span's total — the invariant
//! [`CellResult::breakdown_self_sum_ns`] exposes and the tests pin. For
//! `par` cells strip entries carry *work* time (strips overlap in
//! wall-clock terms), so the sum may exceed the root's wall total.
//!
//! The schema is versioned (`swc-bench-v1`); [`compare`] refuses to diff
//! reports with mismatched schemas so a gate never silently compares
//! incompatible trajectories.

use std::time::Instant;
use sw_core::arch::build_arch;
use sw_core::codec::LineCodecKind;
use sw_core::config::ArchConfig;
use sw_core::kernels::{BoxFilter, GaussianFilter, SobelMagnitude, WindowKernel};
use sw_core::shard::{ShardedFrameRunner, DEFAULT_STRIPS};
use sw_image::{ImageU8, ScenePreset};
use sw_pool::ThreadPool;
use sw_telemetry::json::{self, Json};
use sw_telemetry::TelemetryHandle;

/// Schema identifier embedded in every report; bump on breaking change.
pub const SCHEMA: &str = "swc-bench-v1";
/// Numeric schema version matching [`SCHEMA`].
pub const SCHEMA_VERSION: u64 = 1;

/// The kernels benchmarked, by short name. All use the same window so
/// every codec (including two-level Haar, which needs `N % 4 == 0`) runs.
pub const KERNELS: [&str; 3] = ["box", "gaussian", "sobel"];
/// Window size shared by every cell (divisible by 4 for `haar2`).
pub const WINDOW: usize = 8;
/// Profiled frames per cell; the fastest supplies the breakdown.
pub const PROFILED_FRAMES: usize = 3;
/// The largest median `profiled_ns ÷ p50_ns` over `seq` cells a full
/// run accepts: a profiled frame may cost at most 10 % more than an
/// unprofiled one.
pub const MAX_PROBE_DISTORTION: f64 = 1.10;

fn kernel_by_name(name: &str) -> Box<dyn WindowKernel> {
    match name {
        "box" => Box::new(BoxFilter::new(WINDOW)),
        "gaussian" => Box::new(GaussianFilter::new(WINDOW)),
        "sobel" => Box::new(SobelMagnitude::new(WINDOW)),
        other => panic!("unknown bench kernel '{other}'"),
    }
}

/// Matrix dimensions and per-cell workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSettings {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Timed frames per cell (the p50/p99 sample count).
    pub frames: usize,
    /// Thread-pool size for `par` cells.
    pub jobs: usize,
    /// Whether these are the reduced `--quick` settings.
    pub quick: bool,
    /// The machine's `std::thread::available_parallelism` when the run
    /// was made (`None` in reports that predate the field).
    pub available_parallelism: Option<usize>,
}

fn available_parallelism() -> Option<usize> {
    std::thread::available_parallelism().ok().map(|n| n.get())
}

impl BenchSettings {
    /// The full trajectory settings (checked-in `BENCH_<date>.json`).
    pub fn full(jobs: usize) -> Self {
        Self {
            width: 512,
            height: 512,
            frames: 8,
            jobs,
            quick: false,
            available_parallelism: available_parallelism(),
        }
    }

    /// Reduced settings for CI smoke runs (`--quick`).
    pub fn quick(jobs: usize) -> Self {
        Self {
            width: 128,
            height: 96,
            frames: 2,
            jobs,
            quick: true,
            available_parallelism: available_parallelism(),
        }
    }

    /// Pixels streamed per frame (the Mpix/s numerator).
    pub fn pixels_per_frame(&self) -> u64 {
        (self.width * self.height) as u64
    }
}

/// One row of a cell's profiled stage breakdown. `stage` is the
/// slash-joined span path (`frame/encode`, `shard.bench/strip3`, …);
/// `self_ns` is `total_ns` minus the time attributed to child stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTime {
    /// Span path relative to the cell's profiler root.
    pub stage: String,
    /// Subtree wall-clock total in nanoseconds.
    pub total_ns: u64,
    /// Self time (total minus children) in nanoseconds.
    pub self_ns: u64,
    /// Times the stage ran during the profiled frame.
    pub calls: u64,
}

/// One benchmarked `(kernel, codec, mode)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Stable cell id, `<kernel>/<codec>/<mode>`.
    pub cell: String,
    /// Kernel short name.
    pub kernel: String,
    /// Codec name (`raw`, `haar`, …).
    pub codec: String,
    /// `seq` (unsharded) or `par` (halo-sharded on the pool).
    pub mode: String,
    /// Throughput over all timed frames, in megapixels per second.
    pub mpix_per_s: f64,
    /// Median per-frame wall-clock time (nanoseconds, exact from the
    /// sample set).
    pub p50_ns: u64,
    /// 99th-percentile per-frame wall-clock time (nanoseconds; with few
    /// samples this is the slowest frame).
    pub p99_ns: u64,
    /// Payload bytes the codec packs per frame on the unsharded
    /// datapath (deterministic; identical for `seq` and `par` cells so
    /// modes stay comparable — the sharded datapath re-packs halo rows).
    pub bytes_packed: u64,
    /// Hierarchical profile of the fastest of [`PROFILED_FRAMES`]
    /// instrumented frames, in span path order (root first).
    pub stage_breakdown: Vec<StageTime>,
}

impl CellResult {
    /// Sum of `self_ns` over the breakdown. Equals the root stage's
    /// `total_ns` exactly when every span closed cleanly — the flame
    /// invariant the acceptance test checks to within 5 %.
    pub fn breakdown_self_sum_ns(&self) -> u64 {
        self.stage_breakdown.iter().map(|s| s.self_ns).sum()
    }

    /// The root stage's subtree total (0 for an empty breakdown).
    pub fn breakdown_root_total_ns(&self) -> u64 {
        self.profiled_ns().unwrap_or(0)
    }

    /// Wall time of the profiled frame (the breakdown's root total), the
    /// JSON's `profiled_ns`; `None` without a breakdown.
    pub fn profiled_ns(&self) -> Option<u64> {
        self.stage_breakdown.first().map(|s| s.total_ns)
    }

    /// `profiled_ns ÷ p50_ns`: what the profiler's probes cost a frame.
    pub fn profiled_per_p50(&self) -> Option<f64> {
        let profiled = self.profiled_ns()?;
        (self.p50_ns > 0).then(|| profiled as f64 / self.p50_ns as f64)
    }
}

/// Median [`CellResult::profiled_per_p50`] over the `seq` cells (`par`
/// breakdowns hold strip work time, not wall time); `None` when no `seq`
/// cell carries a profile.
pub fn probe_distortion(cells: &[CellResult]) -> Option<f64> {
    let mut ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.mode == "seq")
        .filter_map(CellResult::profiled_per_p50)
        .collect();
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    Some(if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    })
}

/// The probe-distortion gate: fails when [`probe_distortion`] exceeds
/// [`MAX_PROBE_DISTORTION`]. Reports without `seq` profiles pass.
///
/// # Errors
///
/// A message naming the measured median and the bound.
pub fn check_probe_distortion(cells: &[CellResult]) -> Result<(), String> {
    match probe_distortion(cells) {
        Some(r) if r > MAX_PROBE_DISTORTION => Err(format!(
            "probe distortion gate failed: median prof/p50 over seq cells is {r:.3} \
             (bound {MAX_PROBE_DISTORTION:.2})"
        )),
        _ => Ok(()),
    }
}

/// A full `swc bench` run: settings plus one [`CellResult`] per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u64,
    /// UTC date the report was generated (`YYYY-MM-DD`).
    pub created_utc: String,
    /// Which workload matrix this is. The writer always records `window`
    /// (the kernel × codec sliding-window matrix); reports written before
    /// the field existed parse as `window`, and reports of the retired
    /// `integral` workload still parse but never compare against a window
    /// report.
    pub workload: String,
    /// Settings the matrix ran with.
    pub settings: BenchSettings,
    /// Results in matrix order (kernel-major, then codec, then mode).
    pub cells: Vec<CellResult>,
}

/// Every cell id of the matrix, in report order.
pub fn matrix_cell_ids() -> Vec<String> {
    let mut ids = Vec::new();
    for kernel in KERNELS {
        for codec in LineCodecKind::ALL {
            for mode in ["seq", "par"] {
                ids.push(format!("{kernel}/{}/{mode}", codec.name()));
            }
        }
    }
    ids
}

fn bench_image(settings: &BenchSettings) -> ImageU8 {
    ScenePreset::ALL[0].render(settings.width, settings.height)
}

fn cell_config(codec: LineCodecKind, settings: &BenchSettings) -> ArchConfig {
    ArchConfig::builder(WINDOW, settings.width)
        .codec(codec)
        .build()
        .expect("bench matrix configs are valid")
}

fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

/// Run one cell: `settings.frames` timed frames with telemetry disabled,
/// then one profiled frame for the stage breakdown.
///
/// # Errors
///
/// Propagates any datapath error as a string (misconfigured codec,
/// overflow, …) — the matrix settings are chosen so none occur.
pub fn run_cell(
    kernel_name: &str,
    codec: LineCodecKind,
    par: bool,
    img: &ImageU8,
    pool: &ThreadPool,
    settings: &BenchSettings,
) -> Result<CellResult, String> {
    let cfg = cell_config(codec, settings);
    let kernel = kernel_by_name(kernel_name);
    let mode = if par { "par" } else { "seq" };

    // Packed payload measured once on the unsharded datapath (see the
    // `bytes_packed` field docs), before any timing.
    let mut probe = build_arch(&cfg).map_err(|e| e.to_string())?;
    let stats = probe
        .process_frame(img, kernel.as_ref())
        .map_err(|e| e.to_string())?
        .stats;
    let bytes_packed = stats.payload_bits_total / 8;

    // Timed frames: telemetry disabled, i.e. the production datapath.
    let mut samples_ns = Vec::with_capacity(settings.frames);
    if par {
        let runner = ShardedFrameRunner::new(cfg);
        for _ in 0..settings.frames {
            let t0 = Instant::now();
            runner
                .run(img, kernel.as_ref(), pool)
                .map_err(|e| e.to_string())?;
            samples_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    } else {
        let mut arch = build_arch(&cfg).map_err(|e| e.to_string())?;
        for _ in 0..settings.frames {
            let t0 = Instant::now();
            arch.process_frame(img, kernel.as_ref())
                .map_err(|e| e.to_string())?;
            samples_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    let total_ns: u64 = samples_ns.iter().sum();
    let pixels = settings.pixels_per_frame() * settings.frames as u64;
    let mpix_per_s = if total_ns == 0 {
        0.0
    } else {
        pixels as f64 / (total_ns as f64 / 1e9) / 1e6
    };
    samples_ns.sort_unstable();
    let p50_ns = percentile(&samples_ns, 0.50);
    let p99_ns = percentile(&samples_ns, 0.99);

    // Extra frames under the hierarchical profiler, each with a fresh
    // handle; the fastest supplies the breakdown.
    let mut stage_breakdown: Vec<StageTime> = Vec::new();
    for _ in 0..PROFILED_FRAMES {
        let tele = TelemetryHandle::new();
        ShardedFrameRunner::new(cfg)
            .with_strips(if par { DEFAULT_STRIPS } else { 1 })
            .with_named_telemetry(&tele, "bench")
            .run(img, kernel.as_ref(), pool)
            .map_err(|e| e.to_string())?;
        let breakdown: Vec<StageTime> = tele
            .profile_snapshot()
            .paths
            .iter()
            .map(|(path, p)| StageTime {
                stage: path.clone(),
                total_ns: p.total_ns,
                self_ns: p.self_ns(),
                calls: p.calls,
            })
            .collect();
        let root = |b: &[StageTime]| b.first().map_or(u64::MAX, |s| s.total_ns);
        if root(&breakdown) < root(&stage_breakdown) {
            stage_breakdown = breakdown;
        }
    }

    Ok(CellResult {
        cell: format!("{kernel_name}/{}/{mode}", codec.name()),
        kernel: kernel_name.to_string(),
        codec: codec.name().to_string(),
        mode: mode.to_string(),
        mpix_per_s,
        p50_ns,
        p99_ns,
        bytes_packed,
        stage_breakdown,
    })
}

/// Run the full kernel × codec × mode matrix.
///
/// # Errors
///
/// The first cell error, in matrix order.
pub fn run_matrix(settings: &BenchSettings, created_utc: &str) -> Result<BenchReport, String> {
    let img = bench_image(settings);
    let pool = ThreadPool::new(settings.jobs);
    let mut cells = Vec::new();
    for kernel in KERNELS {
        for codec in LineCodecKind::ALL {
            for par in [false, true] {
                cells.push(run_cell(kernel, codec, par, &img, &pool, settings)?);
            }
        }
    }
    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        version: SCHEMA_VERSION,
        created_utc: created_utc.to_string(),
        workload: "window".to_string(),
        settings: *settings,
        cells,
    })
}

// ---------------------------------------------------------------------
// JSON serialization / parsing
// ---------------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// Render the report as pretty-printed JSON (the `BENCH_<date>.json`
    /// format). Field order is fixed so diffs stay reviewable.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{}\",\n", esc(&self.schema)));
        s.push_str(&format!("  \"version\": {},\n", self.version));
        s.push_str(&format!(
            "  \"created_utc\": \"{}\",\n",
            esc(&self.created_utc)
        ));
        s.push_str(&format!("  \"workload\": \"{}\",\n", esc(&self.workload)));
        if let Some(n) = self.settings.available_parallelism {
            s.push_str(&format!("  \"available_parallelism\": {n},\n"));
        }
        s.push_str(&format!(
            "  \"frame\": {{\"width\": {}, \"height\": {}, \"frames\": {}, \"window\": {WINDOW}, \"jobs\": {}, \"quick\": {}}},\n",
            self.settings.width,
            self.settings.height,
            self.settings.frames,
            self.settings.jobs,
            self.settings.quick
        ));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"cell\": \"{}\",\n", esc(&c.cell)));
            s.push_str(&format!("      \"kernel\": \"{}\",\n", esc(&c.kernel)));
            s.push_str(&format!("      \"codec\": \"{}\",\n", esc(&c.codec)));
            s.push_str(&format!("      \"mode\": \"{}\",\n", esc(&c.mode)));
            s.push_str(&format!("      \"mpix_per_s\": {:.3},\n", c.mpix_per_s));
            s.push_str(&format!("      \"p50_ns\": {},\n", c.p50_ns));
            s.push_str(&format!("      \"p99_ns\": {},\n", c.p99_ns));
            s.push_str(&format!("      \"bytes_packed\": {},\n", c.bytes_packed));
            if let Some(ns) = c.profiled_ns() {
                s.push_str(&format!("      \"profiled_ns\": {ns},\n"));
            }
            s.push_str("      \"stage_breakdown\": [");
            for (j, st) in c.stage_breakdown.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n        {{\"stage\": \"{}\", \"total_ns\": {}, \"self_ns\": {}, \"calls\": {}}}",
                    esc(&st.stage),
                    st.total_ns,
                    st.self_ns,
                    st.calls
                ));
            }
            if !c.stage_breakdown.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("]\n");
            s.push_str(if i + 1 == self.cells.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a report from its JSON form, validating the schema marker.
    ///
    /// # Errors
    ///
    /// A descriptive message for malformed JSON, a missing/typed-wrong
    /// field, or a schema mismatch.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("bench JSON: {e}"))?;
        let obj = v.as_obj().ok_or("bench JSON: top level is not an object")?;
        let str_field = |name: &str| -> Result<String, String> {
            obj.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bench JSON: missing string field '{name}'"))
        };
        let schema = str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("bench JSON: schema '{schema}' != '{SCHEMA}'"));
        }
        let version = obj
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("bench JSON: missing 'version'")?;
        let created_utc = str_field("created_utc")?;
        let workload = match obj.get("workload") {
            Some(v) => v
                .as_str()
                .ok_or("bench JSON: non-string 'workload'")?
                .to_string(),
            None => "window".to_string(),
        };
        let frame = obj
            .get("frame")
            .and_then(Json::as_obj)
            .ok_or("bench JSON: missing 'frame' object")?;
        let fu = |name: &str| -> Result<u64, String> {
            frame
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("bench JSON: missing frame field '{name}'"))
        };
        let settings = BenchSettings {
            width: fu("width")? as usize,
            height: fu("height")? as usize,
            frames: fu("frames")? as usize,
            jobs: fu("jobs")? as usize,
            quick: frame
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or("bench JSON: missing frame field 'quick'")?,
            available_parallelism: match obj.get("available_parallelism") {
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("bench JSON: non-integer 'available_parallelism'")?
                        as usize,
                ),
                None => None,
            },
        };
        if fu("window")? as usize != WINDOW {
            return Err(format!("bench JSON: window != {WINDOW}"));
        }
        let cells_json = obj
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("bench JSON: missing 'cells' array")?;
        let mut cells = Vec::with_capacity(cells_json.len());
        for cj in cells_json {
            cells.push(parse_cell(cj)?);
        }
        Ok(Self {
            schema,
            version,
            created_utc,
            workload,
            settings,
            cells,
        })
    }
}

fn parse_cell(v: &Json) -> Result<CellResult, String> {
    let obj = v.as_obj().ok_or("bench JSON: cell is not an object")?;
    let st = |name: &str| -> Result<String, String> {
        obj.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("bench JSON: cell missing string '{name}'"))
    };
    let nu = |name: &str| -> Result<u64, String> {
        obj.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("bench JSON: cell missing integer '{name}'"))
    };
    let mpix_per_s = obj
        .get("mpix_per_s")
        .and_then(Json::as_f64)
        .ok_or("bench JSON: cell missing number 'mpix_per_s'")?;
    let mut stage_breakdown = Vec::new();
    for sj in obj
        .get("stage_breakdown")
        .and_then(Json::as_arr)
        .ok_or("bench JSON: cell missing 'stage_breakdown'")?
    {
        let so = sj
            .as_obj()
            .ok_or("bench JSON: stage entry is not an object")?;
        let su = |name: &str| -> Result<u64, String> {
            so.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("bench JSON: stage missing integer '{name}'"))
        };
        stage_breakdown.push(StageTime {
            stage: so
                .get("stage")
                .and_then(Json::as_str)
                .ok_or("bench JSON: stage missing 'stage'")?
                .to_string(),
            total_ns: su("total_ns")?,
            self_ns: su("self_ns")?,
            calls: su("calls")?,
        });
    }
    let cell = CellResult {
        cell: st("cell")?,
        kernel: st("kernel")?,
        codec: st("codec")?,
        mode: st("mode")?,
        mpix_per_s,
        p50_ns: nu("p50_ns")?,
        p99_ns: nu("p99_ns")?,
        bytes_packed: nu("bytes_packed")?,
        stage_breakdown,
    };
    // `profiled_ns` is derived from the breakdown; older reports omit it.
    if obj.contains_key("profiled_ns") && Some(nu("profiled_ns")?) != cell.profiled_ns() {
        return Err(format!(
            "bench JSON: cell '{}' profiled_ns disagrees with its breakdown root",
            cell.cell
        ));
    }
    Ok(cell)
}

// ---------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------

/// Throughput change of one cell present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDelta {
    /// Cell id.
    pub cell: String,
    /// Baseline throughput (Mpix/s).
    pub base_mpix_per_s: f64,
    /// New throughput (Mpix/s).
    pub new_mpix_per_s: f64,
    /// Signed percentage change (negative = slower).
    pub delta_pct: f64,
}

/// Outcome of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOutcome {
    /// The loss threshold the gate ran with (percent).
    pub max_loss_pct: f64,
    /// Cells slower than `-max_loss_pct` — the gate failures.
    pub regressions: Vec<CellDelta>,
    /// All common cells, in baseline order.
    pub deltas: Vec<CellDelta>,
    /// Cells only in the baseline.
    pub missing: Vec<String>,
    /// Cells only in the new report.
    pub added: Vec<String>,
}

impl CompareOutcome {
    /// Whether the gate should fail (any regression, or cells that
    /// disappeared from the matrix).
    pub fn is_regressed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }

    /// Human-readable gate summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{} cells compared, gate at -{:.1}%\n",
            self.deltas.len(),
            self.max_loss_pct
        ));
        for d in &self.deltas {
            let flag = if d.delta_pct < -self.max_loss_pct {
                "  REGRESSION"
            } else {
                ""
            };
            s.push_str(&format!(
                "  {:<22} {:>9.3} -> {:>9.3} Mpix/s  {:>+7.1}%{flag}\n",
                d.cell, d.base_mpix_per_s, d.new_mpix_per_s, d.delta_pct
            ));
        }
        for m in &self.missing {
            s.push_str(&format!("  {m:<22} MISSING from new report\n"));
        }
        for a in &self.added {
            s.push_str(&format!("  {a:<22} new cell (not in baseline)\n"));
        }
        if self.is_regressed() {
            s.push_str(&format!(
                "FAIL: {} regression(s), {} missing cell(s)\n",
                self.regressions.len(),
                self.missing.len()
            ));
        } else {
            s.push_str("OK: no cell regressed past the gate\n");
        }
        s
    }
}

/// Diff two reports cell-by-cell. A cell **regresses** when its
/// throughput drops by more than `max_loss_pct` percent relative to the
/// baseline; cells missing from `new` also fail the gate (a silently
/// shrunk matrix must not pass).
///
/// # Errors
///
/// When the two reports carry different schema identifiers or versions.
pub fn compare(
    base: &BenchReport,
    new: &BenchReport,
    max_loss_pct: f64,
) -> Result<CompareOutcome, String> {
    if base.schema != new.schema || base.version != new.version {
        return Err(format!(
            "schema mismatch: baseline {}/v{} vs new {}/v{}",
            base.schema, base.version, new.schema, new.version
        ));
    }
    if base.workload != new.workload {
        return Err(format!(
            "workload mismatch: baseline '{}' vs new '{}'",
            base.workload, new.workload
        ));
    }
    let mut deltas = Vec::new();
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    for bc in &base.cells {
        match new.cells.iter().find(|nc| nc.cell == bc.cell) {
            Some(nc) => {
                let delta_pct = if bc.mpix_per_s > 0.0 {
                    (nc.mpix_per_s - bc.mpix_per_s) / bc.mpix_per_s * 100.0
                } else {
                    0.0
                };
                let d = CellDelta {
                    cell: bc.cell.clone(),
                    base_mpix_per_s: bc.mpix_per_s,
                    new_mpix_per_s: nc.mpix_per_s,
                    delta_pct,
                };
                if delta_pct < -max_loss_pct {
                    regressions.push(d.clone());
                }
                deltas.push(d);
            }
            None => missing.push(bc.cell.clone()),
        }
    }
    let added = new
        .cells
        .iter()
        .filter(|nc| !base.cells.iter().any(|bc| bc.cell == nc.cell))
        .map(|nc| nc.cell.clone())
        .collect();
    Ok(CompareOutcome {
        max_loss_pct,
        regressions,
        deltas,
        missing,
        added,
    })
}

// ---------------------------------------------------------------------
// Dates (no chrono in the tree: civil-from-days, proleptic Gregorian)
// ---------------------------------------------------------------------

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
pub fn utc_date_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    date_from_unix_days((secs / 86_400) as i64)
}

/// `YYYY-MM-DD` for a day count since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`).
pub fn date_from_unix_days(days: i64) -> String {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> BenchSettings {
        BenchSettings {
            width: 64,
            height: 32,
            frames: 2,
            jobs: 2,
            quick: true,
            available_parallelism: Some(2),
        }
    }

    fn synthetic_report(mpix: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            version: SCHEMA_VERSION,
            created_utc: "2026-08-07".to_string(),
            workload: "window".to_string(),
            settings: tiny_settings(),
            cells: mpix
                .iter()
                .map(|(cell, m)| CellResult {
                    cell: cell.to_string(),
                    kernel: cell.split('/').next().unwrap().to_string(),
                    codec: "haar".to_string(),
                    mode: "seq".to_string(),
                    mpix_per_s: *m,
                    p50_ns: 1_000,
                    p99_ns: 2_000,
                    bytes_packed: 512,
                    stage_breakdown: vec![StageTime {
                        stage: "frame".to_string(),
                        total_ns: 1_000,
                        self_ns: 1_000,
                        calls: 1,
                    }],
                })
                .collect(),
        }
    }

    #[test]
    fn matrix_enumerates_thirty_cells() {
        let ids = matrix_cell_ids();
        assert_eq!(ids.len(), 30); // 3 kernels x 5 codecs x 2 modes
        assert_eq!(ids[0], "box/raw/seq");
        assert!(ids.contains(&"sobel/locoi/par".to_string()));
    }

    #[test]
    fn one_cell_runs_and_profiles_both_modes() {
        let s = tiny_settings();
        let img = super::bench_image(&s);
        let pool = ThreadPool::new(2);
        for par in [false, true] {
            let c = run_cell("box", LineCodecKind::Haar, par, &img, &pool, &s).unwrap();
            assert_eq!(
                c.cell,
                format!("box/haar/{}", if par { "par" } else { "seq" })
            );
            assert!(c.mpix_per_s > 0.0);
            assert!(c.p99_ns >= c.p50_ns);
            assert!(c.bytes_packed > 0);
            assert!(!c.stage_breakdown.is_empty());
        }
    }

    #[test]
    fn flame_breakdown_self_times_sum_to_the_cell_total() {
        // Acceptance criterion: per-stage self times sum to the root
        // span's total within 5 % (exact by construction for a
        // same-thread hierarchy; the margin covers only the assertion's
        // own arithmetic).
        let s = tiny_settings();
        let img = super::bench_image(&s);
        let pool = ThreadPool::new(2);
        let c = run_cell("gaussian", LineCodecKind::Haar, false, &img, &pool, &s).unwrap();
        let total = c.breakdown_root_total_ns();
        let self_sum = c.breakdown_self_sum_ns();
        assert!(total > 0, "profiled frame must record a root span");
        let err = (self_sum as f64 - total as f64).abs() / total as f64;
        assert!(
            err <= 0.05,
            "self-time sum {self_sum} vs root total {total} ({:.2}% off)",
            err * 100.0
        );
    }

    #[test]
    fn par_breakdown_records_work_time_per_strip() {
        // Sharded cells record strip *work* time (strips overlap in
        // wall-clock terms), so the self-time sum may exceed the root
        // span's wall total — the flame identity applies per thread, not
        // across the pool. Pin the structure instead: a root plus one
        // entry per strip, every strip timed.
        let s = tiny_settings();
        let img = super::bench_image(&s);
        let pool = ThreadPool::new(2);
        let c = run_cell("gaussian", LineCodecKind::Haar, true, &img, &pool, &s).unwrap();
        assert_eq!(c.stage_breakdown[0].stage, "shard.bench");
        let strips = c
            .stage_breakdown
            .iter()
            .filter(|st| st.stage.starts_with("shard.bench/strip"))
            .count();
        assert_eq!(strips, c.stage_breakdown.len() - 1);
        assert!(strips >= 2, "sharded run must decompose into strips");
        assert!(c.stage_breakdown.iter().all(|st| st.total_ns > 0));
    }

    #[test]
    fn report_round_trips_through_json() {
        let s = tiny_settings();
        let img = super::bench_image(&s);
        let pool = ThreadPool::new(2);
        let report = BenchReport {
            schema: SCHEMA.to_string(),
            version: SCHEMA_VERSION,
            created_utc: "2026-08-07".to_string(),
            workload: "window".to_string(),
            settings: s,
            cells: vec![run_cell("box", LineCodecKind::Raw, false, &img, &pool, &s).unwrap()],
        };
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        // Integer fields round-trip exactly; the float field re-renders
        // identically (3-decimal fixed point both ways).
        assert_eq!(back.to_json(), text);
        assert_eq!(back.cells[0].cell, "box/raw/seq");
        assert_eq!(
            back.cells[0].stage_breakdown,
            report.cells[0].stage_breakdown
        );
        assert_eq!(back.settings.width, 64);
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        let wrong = synthetic_report(&[("box/haar/seq", 10.0)])
            .to_json()
            .replace(SCHEMA, "swc-bench-v0");
        let err = BenchReport::from_json(&wrong).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn compare_detects_a_synthetic_twenty_percent_slowdown() {
        let base = synthetic_report(&[("box/haar/seq", 10.0), ("box/haar/par", 20.0)]);
        let mut new = base.clone();
        new.cells[1].mpix_per_s = 16.0; // -20 %
        let out = compare(&base, &new, 10.0).unwrap();
        assert!(out.is_regressed());
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].cell, "box/haar/par");
        assert!((out.regressions[0].delta_pct - -20.0).abs() < 1e-9);
        assert!(out.render().contains("REGRESSION"));
    }

    #[test]
    fn compare_tolerates_losses_inside_the_gate_and_any_gain() {
        let base = synthetic_report(&[("box/haar/seq", 10.0), ("box/haar/par", 20.0)]);
        let mut new = base.clone();
        new.cells[0].mpix_per_s = 9.2; // -8 %, inside the 10 % gate
        new.cells[1].mpix_per_s = 40.0; // +100 %
        let out = compare(&base, &new, 10.0).unwrap();
        assert!(!out.is_regressed());
        assert!(out.regressions.is_empty());
        assert!(out.render().contains("OK"));
    }

    #[test]
    fn compare_fails_on_missing_cells_and_reports_added_ones() {
        let base = synthetic_report(&[("box/haar/seq", 10.0), ("box/haar/par", 20.0)]);
        let new = synthetic_report(&[("box/haar/seq", 10.0), ("box/legall/seq", 5.0)]);
        let out = compare(&base, &new, 10.0).unwrap();
        assert!(out.is_regressed(), "a shrunk matrix must fail the gate");
        assert_eq!(out.missing, vec!["box/haar/par".to_string()]);
        assert_eq!(out.added, vec!["box/legall/seq".to_string()]);
    }

    #[test]
    fn retired_integral_reports_parse_but_never_compare_with_window() {
        // A report the retired integral workload wrote (`integral/wide/*`
        // cells, no stage breakdown) still parses; comparing it with a
        // window report is the typed workload mismatch.
        let legacy = include_str!("../tests/fixtures/legacy_integral_report.json");
        let report = BenchReport::from_json(legacy).unwrap();
        assert_eq!(report.workload, "integral");
        let ids: Vec<&str> = report.cells.iter().map(|c| c.cell.as_str()).collect();
        assert_eq!(ids, ["integral/wide/seq", "integral/wide/par"]);
        assert!(report.cells.iter().all(|c| c.stage_breakdown.is_empty()));
        let window = synthetic_report(&[("box/haar/seq", 10.0)]);
        let err = compare(&window, &report, 10.0).unwrap_err();
        assert!(err.contains("workload mismatch"), "{err}");
    }

    #[test]
    fn legacy_reports_without_workload_parse_as_window() {
        let report = synthetic_report(&[("box/haar/seq", 10.0)]);
        let legacy = report
            .to_json()
            .replace("  \"workload\": \"window\",\n", "");
        let back = BenchReport::from_json(&legacy).unwrap();
        assert_eq!(back.workload, "window");
    }

    #[test]
    fn compare_rejects_workload_mismatches() {
        let base = synthetic_report(&[("box/haar/seq", 10.0)]);
        let mut new = base.clone();
        new.workload = "integral".to_string();
        let err = compare(&base, &new, 10.0).unwrap_err();
        assert!(err.contains("workload"), "{err}");
    }

    #[test]
    fn compare_rejects_schema_mismatches() {
        let base = synthetic_report(&[("box/haar/seq", 10.0)]);
        let mut new = base.clone();
        new.version = 2;
        assert!(compare(&base, &new, 10.0).is_err());
    }

    /// A cell whose profiled frame took `ratio` × its p50.
    fn distorted_cell(id: &str, mode: &str, ratio: f64) -> CellResult {
        let mut c = synthetic_report(&[(id, 10.0)]).cells.remove(0);
        c.mode = mode.to_string();
        c.stage_breakdown[0].total_ns = (c.p50_ns as f64 * ratio) as u64;
        c
    }

    #[test]
    fn probe_distortion_gate_passes_small_and_fails_large_distortion() {
        let cells = |ratios: &[f64]| -> Vec<CellResult> {
            ratios
                .iter()
                .enumerate()
                .map(|(i, &r)| distorted_cell(&format!("box/c{i}/seq"), "seq", r))
                .collect()
        };
        let ok = cells(&[1.05, 0.98, 1.3]);
        assert_eq!(probe_distortion(&ok), Some(1.05));
        assert!(check_probe_distortion(&ok).is_ok());
        let bad = cells(&[1.5, 1.5, 0.9, 1.5]);
        assert_eq!(probe_distortion(&bad), Some(1.5));
        let err = check_probe_distortion(&bad).unwrap_err();
        assert!(err.contains("1.500") && err.contains("1.10"), "{err}");
        // `par` breakdowns hold strip work time: they never count.
        let mut par_only = cells(&[1.05]);
        par_only.push(distorted_cell("box/haar/par", "par", 9.0));
        assert_eq!(probe_distortion(&par_only), Some(1.05));
        assert_eq!(probe_distortion(&[]), None);
        assert!(check_probe_distortion(&[]).is_ok());
    }

    #[test]
    fn profiled_ns_is_the_breakdown_root_and_optional_on_parse() {
        let report = synthetic_report(&[("box/haar/seq", 10.0)]);
        let text = report.to_json();
        assert!(text.contains("\"profiled_ns\": 1000,"), "{text}");
        let legacy = text.replace("      \"profiled_ns\": 1000,\n", "");
        assert_eq!(BenchReport::from_json(&legacy).unwrap(), report);
        let doctored = text.replace("\"profiled_ns\": 1000", "\"profiled_ns\": 7");
        let err = BenchReport::from_json(&doctored).unwrap_err();
        assert!(err.contains("profiled_ns"), "{err}");
    }

    #[test]
    fn available_parallelism_round_trips_and_is_optional() {
        let mut report = synthetic_report(&[("box/haar/seq", 10.0)]);
        report.settings.available_parallelism = Some(6);
        let text = report.to_json();
        assert!(text.contains("\"available_parallelism\": 6,"), "{text}");
        assert_eq!(BenchReport::from_json(&text).unwrap(), report);
        report.settings.available_parallelism = None;
        let legacy = report.to_json();
        assert!(!legacy.contains("available_parallelism"));
        assert_eq!(BenchReport::from_json(&legacy).unwrap(), report);
        assert!(BenchSettings::quick(1).available_parallelism.unwrap_or(1) >= 1);
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(date_from_unix_days(0), "1970-01-01");
        assert_eq!(date_from_unix_days(19_723), "2024-01-01");
        assert_eq!(date_from_unix_days(20_672), "2026-08-07");
        assert!(utc_date_string().len() == 10);
    }
}
