//! The one executor behind every entry point.
//!
//! [`execute`] turns a decoded [`JobRequest`] into a [`JobResponse`] on a
//! caller-provided [`ThreadPool`]. The daemon calls it per admitted job,
//! the served-vs-local conformance tests call it directly, and the load
//! generator's `--verify` pass calls it to reproduce daemon digests
//! locally — so a digest mismatch always means a wire or daemon bug, never
//! two divergent execution paths.

use std::time::Instant;

use crate::api::{FramePayload, JobError, JobRequest, JobResponse, StreamOpen};
use sw_core::analysis::measure_frame;
use sw_core::arch::{build_arch, SlidingWindowArch};
use sw_core::digest::{image_digest, stats_digest};
use sw_core::integral::{analyze_integral, IntegralConfig, Workload};
use sw_core::kernels::WindowKernel;
use sw_core::memory_unit::MemoryUnitConfig;
use sw_core::planner::{plan, MgmtAccounting};
use sw_core::shard::{ShardedFrameRunner, DEFAULT_STRIPS};
use sw_image::{mse, ImageU8};
use sw_pool::ThreadPool;
use sw_telemetry::TelemetryHandle;

/// Provision the job's memory unit exactly the way `swc analyze` does:
/// the planner's structured BRAM budget for this frame, measured
/// losslessly on the selected codec's datapath, scaled by the job's
/// budget fraction.
pub fn memory_unit_for(
    img: &ImageU8,
    req: &JobRequest,
) -> Result<Option<MemoryUnitConfig>, JobError> {
    let Some(policy) = req.spec.overflow_policy else {
        return Ok(None);
    };
    let probe = req
        .spec
        .arch_config(img.width())
        .map_err(|e| JobError::from_sw(&e))?
        .with_threshold(0);
    let stats = measure_frame(img, &probe).map_err(|e| JobError::from_sw(&e))?;
    let p = plan(
        req.spec.window,
        img.width(),
        stats.peak_payload_occupancy,
        MgmtAccounting::Structured,
    );
    let mut mu = MemoryUnitConfig::from_plan(&p, policy);
    if req.spec.budget_fraction != 1.0 {
        mu.capacity_bits = ((mu.capacity_bits as f64 * req.spec.budget_fraction) as u64).max(1);
    }
    Ok(Some(mu))
}

/// Run one job to completion on `pool`.
///
/// The response's `queue_ns` and `degraded` fields belong to admission
/// control and are left at their zero values here; the daemon fills them
/// in after the fact. Window jobs with `spec.jobs <= 1` run the sequential
/// architecture (and report the full [`sw_core::FrameStats`] digest);
/// larger values run the strip-parallel [`ShardedFrameRunner`], whose
/// output image is byte-identical to the sequential path — the image
/// digest is the conformance contract at every job count.
///
/// # Errors
///
/// [`JobError::Config`] for a spec the datapath rejects (including the
/// CLI's "image width … too small for window …" precondition) and
/// [`JobError::Execution`] for datapath failures (decode corruption,
/// overflow under the fail policy).
pub fn execute(
    req: &JobRequest,
    pool: &ThreadPool,
    tele: &TelemetryHandle,
) -> Result<JobResponse, JobError> {
    let img = req.frame.image();
    match req.spec.workload {
        Workload::Integral => execute_integral(req, &img, pool),
        Workload::Window => execute_window(req, &img, pool, tele),
    }
}

fn execute_integral(
    req: &JobRequest,
    img: &ImageU8,
    pool: &ThreadPool,
) -> Result<JobResponse, JobError> {
    let cfg = IntegralConfig {
        segment: req.spec.window,
    };
    let started = Instant::now();
    let r = analyze_integral(img, &cfg, pool).map_err(|e| JobError::from_sw(&e))?;
    Ok(JobResponse {
        workload: Workload::Integral,
        digest: r.digest,
        stats_digest: 0,
        out_width: r.width as u32,
        out_height: r.height as u32,
        effective_threshold: 0,
        degraded: false,
        t_escalations: 0,
        stall_cycles: 0,
        overflow_events: 0,
        peak_payload_occupancy: r.peak_line_bits,
        management_bits: r.management_bits_per_line,
        memory_saving_pct: r.memory_saving_pct(),
        mse: 0.0,
        queue_ns: 0,
        exec_ns: started.elapsed().as_nanos() as u64,
        // The integral engine reconstructs 32-bit lines, not a u8 frame;
        // the digest is its conformance artifact.
        frame: None,
    })
}

fn execute_window(
    req: &JobRequest,
    img: &ImageU8,
    pool: &ThreadPool,
    tele: &TelemetryHandle,
) -> Result<JobResponse, JobError> {
    let spec = &req.spec;
    if img.width() <= spec.window + 1 {
        return Err(JobError::Config(format!(
            "image width {} too small for window {}",
            img.width(),
            spec.window
        )));
    }
    let cfg = spec
        .arch_config(img.width())
        .map_err(|e| JobError::from_sw(&e))?;
    let mu = memory_unit_for(img, req)?;
    let kernel = spec.kernel.build(spec.window);

    let started = Instant::now();
    let (out_image, stats_dg, stats) = if spec.jobs <= 1 {
        let mut arch = build_arch(&cfg).map_err(|e| JobError::from_sw(&e))?;
        arch.bind_telemetry(tele, "serve");
        if mu.is_some() {
            arch.set_memory_unit(mu);
        }
        let out = arch
            .process_frame(img, kernel.as_ref())
            .map_err(|e| JobError::from_sw(&e))?;
        let dg = stats_digest(&out.stats);
        (
            out.image,
            dg,
            RunStats {
                t_escalations: out.stats.t_escalations,
                stall_cycles: out.stats.stall_cycles,
                overflow_events: out.stats.overflow_events as u64,
                peak_payload_occupancy: out.stats.peak_payload_occupancy,
                management_bits: out.stats.management_bits,
                memory_saving_pct: out.stats.memory_saving_pct(),
            },
        )
    } else {
        let mut runner = ShardedFrameRunner::new(cfg)
            .with_strips(DEFAULT_STRIPS)
            .with_named_telemetry(tele, "serve");
        if let Some(mu) = mu {
            runner = runner.with_memory_unit(mu);
        }
        let out = runner
            .run(img, kernel.as_ref(), pool)
            .map_err(|e| JobError::from_sw(&e))?;
        (
            out.image,
            // Per-strip stats do not aggregate into one FrameStats; the
            // image digest is the cross-job-count contract.
            0,
            RunStats {
                t_escalations: out.t_escalations,
                stall_cycles: out.stall_cycles,
                overflow_events: out.overflow_events as u64,
                peak_payload_occupancy: out.peak_payload_occupancy,
                management_bits: 0,
                memory_saving_pct: 0.0,
            },
        )
    };
    let exec_ns = started.elapsed().as_nanos() as u64;

    let lossy = spec.threshold > 0 || stats.t_escalations > 0;
    let mse_val = if lossy {
        let crop = img.crop(0, 0, out_image.width(), out_image.height());
        mse(&out_image, &crop)
    } else {
        0.0
    };

    Ok(JobResponse {
        workload: Workload::Window,
        digest: image_digest(&out_image),
        stats_digest: stats_dg,
        out_width: out_image.width() as u32,
        out_height: out_image.height() as u32,
        effective_threshold: spec.threshold,
        degraded: false,
        t_escalations: stats.t_escalations,
        stall_cycles: stats.stall_cycles,
        overflow_events: stats.overflow_events,
        peak_payload_occupancy: stats.peak_payload_occupancy,
        management_bits: stats.management_bits,
        memory_saving_pct: stats.memory_saving_pct,
        mse: mse_val,
        queue_ns: 0,
        exec_ns,
        frame: req.want_frame.then(|| FramePayload::from_image(&out_image)),
    })
}

struct RunStats {
    t_escalations: u64,
    stall_cycles: u64,
    overflow_events: u64,
    peak_payload_occupancy: u64,
    management_bits: u64,
    memory_saving_pct: f64,
}

/// One row-streaming job in flight.
///
/// Two execution modes behind one surface, chosen at [`begin`]:
///
/// - **Live**: rows feed a [`SlidingWindowArch::push_row`] datapath as
///   they arrive — the paper's line-granular shape. Available for window
///   jobs running the sequential architecture without a memory unit
///   (`jobs <= 1`, no overflow policy): the memory-unit planner needs a
///   whole-frame lossless probe and the sharded runner needs the full
///   strip, so neither can start before the last row.
/// - **Buffered**: rows accumulate and the whole-frame [`execute`] path
///   runs at [`finish`]. This is how *every* job spec — sharded,
///   memory-unit-budgeted, integral — is streamable with byte-identical
///   results to its whole-frame twin.
///
/// Either way the response is indistinguishable from the equivalent
/// [`JobRequest`]: same digests, same stats, same frame bytes.
///
/// [`begin`]: StreamRun::begin
/// [`finish`]: StreamRun::finish
pub struct StreamRun {
    tenant: String,
    open: StreamOpen,
    rows_in: usize,
    /// Nanoseconds spent inside the datapath (excludes wire wait).
    exec_ns: u64,
    mode: StreamMode,
}

enum StreamMode {
    Live {
        arch: Box<dyn SlidingWindowArch + Send>,
        kernel: Box<dyn WindowKernel>,
        /// Lossy jobs keep the input for the response's MSE field (the
        /// datapath itself still streams row-by-row).
        input_copy: Option<Vec<u8>>,
    },
    Buffered {
        pixels: Vec<u8>,
    },
}

impl StreamRun {
    /// Open a streaming job: validate the spec against the declared
    /// geometry and decide the execution mode.
    pub fn begin(open: &StreamOpen, tele: &TelemetryHandle) -> Result<Self, JobError> {
        let width = open.width as usize;
        let height = open.height as usize;
        let spec = &open.spec;
        if spec.workload == Workload::Window && width <= spec.window + 1 {
            return Err(JobError::Config(format!(
                "image width {width} too small for window {}",
                spec.window
            )));
        }
        let live =
            spec.workload == Workload::Window && spec.jobs <= 1 && spec.overflow_policy.is_none();
        let mode = if live {
            let cfg = spec.arch_config(width).map_err(|e| JobError::from_sw(&e))?;
            let mut arch = build_arch(&cfg).map_err(|e| JobError::from_sw(&e))?;
            arch.bind_telemetry(tele, "serve");
            arch.begin_frame(height)
                .map_err(|e| JobError::from_sw(&e))?;
            StreamMode::Live {
                arch,
                kernel: spec.kernel.build(spec.window),
                input_copy: (spec.threshold > 0).then(|| Vec::with_capacity(width * height)),
            }
        } else {
            if spec.workload == Workload::Window {
                // Validate the geometry up front so a bad spec fails at
                // open time in both modes, not after the last row.
                spec.arch_config(width).map_err(|e| JobError::from_sw(&e))?;
            }
            StreamMode::Buffered {
                pixels: Vec::with_capacity(width * height),
            }
        };
        Ok(Self {
            tenant: open.tenant.clone(),
            open: open.clone(),
            rows_in: 0,
            exec_ns: 0,
            mode,
        })
    }

    /// Whether rows drive a live window datapath (vs. buffering).
    pub fn is_live(&self) -> bool {
        matches!(self.mode, StreamMode::Live { .. })
    }

    /// Rows consumed so far.
    pub fn rows_in(&self) -> usize {
        self.rows_in
    }

    /// Feed `pixels` (whole rows, row-major) into the job; returns the
    /// number of rows consumed.
    ///
    /// # Errors
    ///
    /// [`JobError::Malformed`] when the byte count is not a whole number
    /// of rows or the stream overruns its declared height;
    /// [`JobError::Execution`] for datapath failures (live mode).
    pub fn push_rows(&mut self, pixels: &[u8]) -> Result<usize, JobError> {
        let width = self.open.width as usize;
        let height = self.open.height as usize;
        if pixels.is_empty() || !pixels.len().is_multiple_of(width) {
            return Err(JobError::Malformed(format!(
                "row chunk of {} bytes is not a whole number of {width}-byte rows",
                pixels.len()
            )));
        }
        let rows = pixels.len() / width;
        if self.rows_in + rows > height {
            return Err(JobError::Malformed(format!(
                "stream overruns its declared height: {} rows after {} of {height}",
                rows, self.rows_in
            )));
        }
        let started = Instant::now();
        match &mut self.mode {
            StreamMode::Live {
                arch,
                kernel,
                input_copy,
            } => {
                if let Some(copy) = input_copy {
                    copy.extend_from_slice(pixels);
                }
                for row in pixels.chunks_exact(width) {
                    arch.push_row(row, kernel.as_ref())
                        .map_err(|e| JobError::from_sw(&e))?;
                }
            }
            StreamMode::Buffered { pixels: buf } => buf.extend_from_slice(pixels),
        }
        self.rows_in += rows;
        self.exec_ns += started.elapsed().as_nanos() as u64;
        Ok(rows)
    }

    /// Close the stream after all declared rows arrived and produce the
    /// job's response — byte-identical to the whole-frame path.
    pub fn finish(
        self,
        pool: &ThreadPool,
        tele: &TelemetryHandle,
    ) -> Result<JobResponse, JobError> {
        let width = self.open.width as usize;
        let height = self.open.height as usize;
        if self.rows_in != height {
            return Err(JobError::Malformed(format!(
                "stream closed after {} of {height} declared rows",
                self.rows_in
            )));
        }
        let spec = self.open.spec;
        let started = Instant::now();
        match self.mode {
            StreamMode::Live {
                mut arch,
                input_copy,
                ..
            } => {
                let out = arch.finish_frame().map_err(|e| JobError::from_sw(&e))?;
                let out_image = out.image;
                let stats = &out.stats;
                let lossy = spec.threshold > 0 || stats.t_escalations > 0;
                let mse_val = match (lossy, input_copy) {
                    (true, Some(copy)) => {
                        let img = ImageU8::from_vec(width, height, copy);
                        let crop = img.crop(0, 0, out_image.width(), out_image.height());
                        mse(&out_image, &crop)
                    }
                    _ => 0.0,
                };
                Ok(JobResponse {
                    workload: Workload::Window,
                    digest: image_digest(&out_image),
                    stats_digest: stats_digest(stats),
                    out_width: out_image.width() as u32,
                    out_height: out_image.height() as u32,
                    effective_threshold: spec.threshold,
                    degraded: false,
                    t_escalations: stats.t_escalations,
                    stall_cycles: stats.stall_cycles,
                    overflow_events: stats.overflow_events as u64,
                    peak_payload_occupancy: stats.peak_payload_occupancy,
                    management_bits: stats.management_bits,
                    memory_saving_pct: stats.memory_saving_pct(),
                    mse: mse_val,
                    queue_ns: 0,
                    exec_ns: self.exec_ns + started.elapsed().as_nanos() as u64,
                    frame: self
                        .open
                        .want_frame
                        .then(|| FramePayload::from_image(&out_image)),
                })
            }
            StreamMode::Buffered { pixels } => {
                let req = JobRequest {
                    tenant: self.tenant,
                    spec,
                    frame: FramePayload {
                        width: self.open.width,
                        height: self.open.height,
                        pixels,
                    },
                    want_frame: self.open.want_frame,
                };
                let mut resp = execute(&req, pool, tele)?;
                resp.exec_ns += self.exec_ns;
                Ok(resp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::JobSpec;

    fn test_image(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 251) as u8)
    }

    fn request(spec: JobSpec, img: &ImageU8) -> JobRequest {
        JobRequest {
            tenant: "t".into(),
            spec,
            frame: FramePayload::from_image(img),
            want_frame: false,
        }
    }

    #[test]
    fn sequential_and_sharded_agree_on_the_image_digest() {
        let img = test_image(64, 48);
        let pool = ThreadPool::new(4);
        let tele = TelemetryHandle::disabled();
        let seq = execute(
            &request(
                JobSpec {
                    jobs: 1,
                    ..JobSpec::default()
                },
                &img,
            ),
            &pool,
            &tele,
        )
        .unwrap();
        let par = execute(
            &request(
                JobSpec {
                    jobs: 4,
                    ..JobSpec::default()
                },
                &img,
            ),
            &pool,
            &tele,
        )
        .unwrap();
        assert_eq!(seq.digest, par.digest);
        assert_eq!(seq.out_width, par.out_width);
        assert_eq!((seq.out_width, seq.out_height), (57, 41));
    }

    #[test]
    fn narrow_frame_reports_the_cli_diagnostic() {
        let img = test_image(8, 16);
        let pool = ThreadPool::new(1);
        let req = request(
            JobSpec {
                window: 8,
                ..JobSpec::default()
            },
            &img,
        );
        match execute(&req, &pool, &TelemetryHandle::disabled()) {
            Err(JobError::Config(msg)) => {
                assert_eq!(msg, "image width 8 too small for window 8")
            }
            other => panic!("expected config error, got {other:?}"),
        }
    }

    fn stream_replay(
        spec: &JobSpec,
        img: &ImageU8,
        chunk_rows: usize,
        pool: &ThreadPool,
    ) -> Result<(JobResponse, bool), JobError> {
        let tele = TelemetryHandle::disabled();
        let open = StreamOpen {
            tenant: "t".into(),
            spec: spec.clone(),
            width: img.width() as u32,
            height: img.height() as u32,
            want_frame: false,
        };
        let mut run = StreamRun::begin(&open, &tele)?;
        let live = run.is_live();
        let w = img.width();
        for chunk in img.pixels().chunks(chunk_rows * w) {
            run.push_rows(chunk)?;
        }
        Ok((run.finish(pool, &tele)?, live))
    }

    #[test]
    fn streamed_jobs_match_whole_frame_execution() {
        let img = test_image(64, 48);
        let pool = ThreadPool::new(4);
        let tele = TelemetryHandle::disabled();
        // (spec, expect live datapath): lossless live, lossy live,
        // sharded buffered, integral buffered.
        let cases = [
            (JobSpec::default(), true),
            (
                JobSpec {
                    threshold: 4,
                    ..JobSpec::default()
                },
                true,
            ),
            (
                JobSpec {
                    jobs: 4,
                    ..JobSpec::default()
                },
                false,
            ),
            (
                JobSpec {
                    workload: Workload::Integral,
                    window: 8,
                    ..JobSpec::default()
                },
                false,
            ),
        ];
        for (spec, want_live) in cases {
            let whole = execute(&request(spec.clone(), &img), &pool, &tele).unwrap();
            for chunk_rows in [1, 5, 48] {
                let (streamed, live) =
                    stream_replay(&spec, &img, chunk_rows, &pool).expect("stream runs");
                assert_eq!(live, want_live, "{spec:?} mode");
                assert_eq!(streamed.digest, whole.digest, "{spec:?} digest");
                assert_eq!(streamed.stats_digest, whole.stats_digest, "{spec:?} stats");
                assert_eq!(streamed.mse, whole.mse, "{spec:?} mse");
                assert_eq!(
                    (streamed.out_width, streamed.out_height),
                    (whole.out_width, whole.out_height)
                );
            }
        }
    }

    #[test]
    fn stream_overrun_and_short_close_are_typed() {
        let img = test_image(64, 48);
        let pool = ThreadPool::new(1);
        let tele = TelemetryHandle::disabled();
        let open = StreamOpen {
            tenant: "t".into(),
            spec: JobSpec::default(),
            width: 64,
            height: 8,
            want_frame: false,
        };
        // Overrun: 9 rows into a declared height of 8.
        let mut run = StreamRun::begin(&open, &tele).unwrap();
        assert!(matches!(
            run.push_rows(&img.pixels()[..9 * 64]),
            Err(JobError::Malformed(_))
        ));
        // Ragged chunk: not a whole number of rows.
        let mut run = StreamRun::begin(&open, &tele).unwrap();
        assert!(matches!(
            run.push_rows(&img.pixels()[..65]),
            Err(JobError::Malformed(_))
        ));
        // Short close: finish before all declared rows arrived.
        let mut run = StreamRun::begin(&open, &tele).unwrap();
        run.push_rows(&img.pixels()[..4 * 64]).unwrap();
        assert!(matches!(
            run.finish(&pool, &tele),
            Err(JobError::Malformed(_))
        ));
    }

    #[test]
    fn integral_jobs_report_the_wide_line_accounting() {
        let img = test_image(64, 32);
        let pool = ThreadPool::new(2);
        let req = request(
            JobSpec {
                workload: Workload::Integral,
                window: 8,
                ..JobSpec::default()
            },
            &img,
        );
        let r = execute(&req, &pool, &TelemetryHandle::disabled()).unwrap();
        assert_eq!((r.out_width, r.out_height), (64, 32));
        assert!(r.digest != 0);
        assert!(r.peak_payload_occupancy > 0);
        assert!(r.frame.is_none());
    }
}
