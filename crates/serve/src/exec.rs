//! The one executor behind every entry point.
//!
//! [`execute`] turns a decoded [`JobRequest`] into a [`JobResponse`] on a
//! caller-provided [`ThreadPool`]. The daemon calls it per admitted job,
//! the served-vs-local conformance tests call it directly, and the load
//! generator's `--verify` pass calls it to reproduce daemon digests
//! locally — so a digest mismatch always means a wire or daemon bug, never
//! two divergent execution paths. Every window frame runs through one
//! [`ShardedFrameRunner`] call, and every window response — whole-frame or
//! streamed — is built by one function.

use std::time::Instant;

use crate::api::{FramePayload, JobError, JobRequest, JobResponse, JobSpec, StreamOpen};
use sw_core::arch::{build_arch, SlidingWindowArch};
use sw_core::config::ArchConfig;
use sw_core::digest::{image_digest, stats_digest};
use sw_core::kernels::WindowKernel;
use sw_core::shard::{ShardedFrameRunner, ShardedOutput, DEFAULT_STRIPS};
use sw_image::{mse, ImageU8};
use sw_pool::ThreadPool;
use sw_telemetry::TelemetryHandle;

/// Run one job to completion on `pool`.
///
/// The response's `queue_ns` and `degraded` fields belong to admission
/// control and are left at their zero values here; the daemon fills them
/// in after the fact. Jobs with `spec.jobs <= 1` run as one strip
/// (and report the full [`sw_core::FrameStats`] digest); larger values run
/// [`DEFAULT_STRIPS`] strips on `pool`. The image digest is the
/// conformance contract at every job count.
///
/// # Errors
///
/// [`JobError::Config`] for a spec the datapath rejects (including the
/// "image width … too small for window …" precondition) and
/// [`JobError::Execution`] for datapath failures (decode corruption,
/// overflow under the fail policy).
pub fn execute(
    req: &JobRequest,
    pool: &ThreadPool,
    tele: &TelemetryHandle,
) -> Result<JobResponse, JobError> {
    let img = req.frame.image();
    let spec = &req.spec;
    let cfg = spec
        .arch_config(img.width())
        .map_err(|e| JobError::from_sw(&e))?;
    let mu = spec
        .memory_unit(&img, &cfg)
        .map_err(|e| JobError::from_sw(&e))?;
    let kernel = spec.kernel.build(spec.window);

    let started = Instant::now();
    let mut runner = ShardedFrameRunner::new(cfg)
        .with_strips(if spec.jobs <= 1 { 1 } else { DEFAULT_STRIPS })
        .with_named_telemetry(tele, "serve");
    if let Some(mu) = mu {
        runner = runner.with_memory_unit(mu);
    }
    let out = runner
        .run(&img, kernel.as_ref(), pool)
        .map_err(|e| JobError::from_sw(&e))?;
    let exec_ns = started.elapsed().as_nanos() as u64;
    Ok(response(spec, out, Some(&img), req.want_frame, exec_ns))
}

/// The response to a job that produced `out`. `input` is the
/// frame the MSE is measured against; only lossy runs read it, so a
/// lossless live stream keeps no copy and passes `None`.
fn response(
    spec: &JobSpec,
    out: ShardedOutput,
    input: Option<&ImageU8>,
    want_frame: bool,
    exec_ns: u64,
) -> JobResponse {
    let image = out.image;
    let lossy = spec.threshold > 0 || out.t_escalations > 0;
    let mse_val = match input {
        Some(input) if lossy => mse(&image, &input.crop(0, 0, image.width(), image.height())),
        _ => 0.0,
    };
    // Per-strip stats do not aggregate into one FrameStats; the image
    // digest is the cross-strip-count contract.
    let (stats_dg, peak, management_bits, memory_saving_pct) = match &out.frame_stats {
        Some(s) => (
            stats_digest(s),
            s.peak_payload_occupancy,
            s.management_bits,
            s.memory_saving_pct(),
        ),
        None => (0, out.peak_payload_occupancy, 0, 0.0),
    };
    JobResponse {
        digest: image_digest(&image),
        stats_digest: stats_dg,
        out_width: image.width() as u32,
        out_height: image.height() as u32,
        effective_threshold: spec.threshold,
        degraded: false,
        t_escalations: out.t_escalations,
        stall_cycles: out.stall_cycles,
        overflow_events: out.overflow_events as u64,
        peak_payload_occupancy: peak,
        management_bits,
        memory_saving_pct,
        mse: mse_val,
        queue_ns: 0,
        exec_ns,
        frame: want_frame.then(|| FramePayload::from_image(&image)),
    }
}

/// One row-streaming job in flight.
///
/// Two execution modes behind one surface, chosen at [`begin`]:
///
/// - **Live**: rows feed a [`SlidingWindowArch::push_row`] datapath as
///   they arrive — the paper's line-granular shape. Available for
///   one-strip window jobs without a memory unit (`jobs <= 1`, no
///   overflow policy): the memory-unit planner needs a whole-frame
///   lossless probe and K strips need their full strips, so neither can
///   start before the last row.
/// - **Buffered**: rows accumulate and the whole-frame [`execute`] path
///   runs at [`finish`]. This is how *every* job spec — sharded or
///   memory-unit-budgeted — is streamable with byte-identical results to
///   its whole-frame twin.
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
        cfg: ArchConfig,
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
        // Validate the geometry up front so a bad spec fails at open time
        // in both modes, not after the last row.
        let cfg = spec.arch_config(width).map_err(|e| JobError::from_sw(&e))?;
        let mode = if spec.jobs <= 1 && spec.overflow_policy.is_none() {
            let mut arch = build_arch(&cfg).map_err(|e| JobError::from_sw(&e))?;
            arch.bind_telemetry(tele, "serve");
            arch.begin_frame(height)
                .map_err(|e| JobError::from_sw(&e))?;
            StreamMode::Live {
                cfg,
                arch,
                kernel: spec.kernel.build(spec.window),
                input_copy: (spec.threshold > 0).then(|| Vec::with_capacity(width * height)),
            }
        } else {
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
                ..
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
                cfg,
                mut arch,
                input_copy,
                ..
            } => {
                let out = arch.finish_frame().map_err(|e| JobError::from_sw(&e))?;
                let input = input_copy.map(|copy| ImageU8::from_vec(width, height, copy));
                Ok(response(
                    &spec,
                    ShardedOutput::from_frame(&cfg, out),
                    input.as_ref(),
                    self.open.want_frame,
                    self.exec_ns + started.elapsed().as_nanos() as u64,
                ))
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
    use sw_core::codec::LineCodecKind;
    use sw_core::memory_unit::OverflowPolicy;

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

    /// A 64×48 gradient with seeded noise: compressible enough for the
    /// codecs to differ, noisy enough for a quarter budget to bind.
    fn seeded_image(w: usize, h: usize) -> ImageU8 {
        let mut state = 0x9e37_79b9u32;
        ImageU8::from_fn(w, h, |x, y| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((x * 3 + y * 2 + (state >> 27) as usize) % 256) as u8
        })
    }

    /// Every response field except the timings.
    fn fingerprint(r: &JobResponse) -> String {
        format!(
            "{:#018x} {:#018x} {}x{} T{} degraded={} esc={} stall={} ovf={} \
             peak={} mgmt={} saving={:?} mse={:?} frame={:?}",
            r.digest,
            r.stats_digest,
            r.out_width,
            r.out_height,
            r.effective_threshold,
            r.degraded,
            r.t_escalations,
            r.stall_cycles,
            r.overflow_events,
            r.peak_payload_occupancy,
            r.management_bits,
            r.memory_saving_pct,
            r.mse,
            r.frame
                .as_ref()
                .map(|f| format!("{:#018x}", image_digest(&f.image()))),
        )
    }

    /// Responses over `jobs` × overflow policy × (codec, T), recorded
    /// before one frame runner replaced the sequential and sharded
    /// branches. The `jobs=2` rows pin the sharded path's documented
    /// zeros (`stats_digest`, `management_bits`, `memory_saving_pct`).
    const CHARACTERIZATION: [&str; 24] = [
        "jobs=0 none haar T0: 0x3633139bc1cb5b32 0x84c1867a6ec6a8e8 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=3067 mgmt=896 saving=-10.57477678571428 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=0 none haar T4: 0x4f9912a3fa5303b2 0x372763d34c0bb8e9 57x41 T4 degraded=false esc=0 stall=0 ovf=0 peak=2674 mgmt=896 saving=0.390625 mse=2.3388960205391527 frame=Some(\"0x4f9912a3fa5303b2\")",
        "jobs=0 none raw T0: 0x3633139bc1cb5b32 0x916acc0601f29505 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=3136 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=0 none legall T2: 0x4e8d13005a68ca4e 0xe4767ba8b54142c8 57x41 T2 degraded=false esc=0 stall=0 ovf=0 peak=3420 mgmt=896 saving=-20.42410714285714 mse=0.1985451433461703 frame=Some(\"0x4e8d13005a68ca4e\")",
        "jobs=0 stall haar T0: 0x3633139bc1cb5b32 0x84c1867a6ec6a8e8 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=3067 mgmt=896 saving=-10.57477678571428 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=0 stall haar T4: 0x4f9912a3fa5303b2 0x372763d34c0bb8e9 57x41 T4 degraded=false esc=0 stall=0 ovf=0 peak=2674 mgmt=896 saving=0.390625 mse=2.3388960205391527 frame=Some(\"0x4f9912a3fa5303b2\")",
        "jobs=0 stall raw T0: 0x3633139bc1cb5b32 0x916acc0601f29505 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=3136 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=0 stall legall T2: 0x4e8d13005a68ca4e 0xe4767ba8b54142c8 57x41 T2 degraded=false esc=0 stall=0 ovf=0 peak=3420 mgmt=896 saving=-20.42410714285714 mse=0.1985451433461703 frame=Some(\"0x4e8d13005a68ca4e\")",
        "jobs=0 degrade haar T0: 0x3633139bc1cb5b32 0x84c1867a6ec6a8e8 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=3067 mgmt=896 saving=-10.57477678571428 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=0 degrade haar T4: 0x4f9912a3fa5303b2 0x372763d34c0bb8e9 57x41 T4 degraded=false esc=0 stall=0 ovf=0 peak=2674 mgmt=896 saving=0.390625 mse=2.3388960205391527 frame=Some(\"0x4f9912a3fa5303b2\")",
        "jobs=0 degrade raw T0: 0x3633139bc1cb5b32 0x916acc0601f29505 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=3136 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=0 degrade legall T2: 0x4e8d13005a68ca4e 0xe4767ba8b54142c8 57x41 T2 degraded=false esc=0 stall=0 ovf=0 peak=3420 mgmt=896 saving=-20.42410714285714 mse=0.1985451433461703 frame=Some(\"0x4e8d13005a68ca4e\")",
        "jobs=2 none haar T0: 0x3633139bc1cb5b32 0x0000000000000000 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=3239 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=2 none haar T4: 0xdd133d609838189d 0x0000000000000000 57x41 T4 degraded=false esc=0 stall=0 ovf=0 peak=2792 mgmt=0 saving=0.0 mse=2.41206675224647 frame=Some(\"0xdd133d609838189d\")",
        "jobs=2 none raw T0: 0x3633139bc1cb5b32 0x0000000000000000 57x41 T0 degraded=false esc=0 stall=0 ovf=0 peak=0 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=2 none legall T2: 0x13dd5fb9a9b94700 0x0000000000000000 57x41 T2 degraded=false esc=0 stall=0 ovf=0 peak=3696 mgmt=0 saving=0.0 mse=0.1600342319212666 frame=Some(\"0x13dd5fb9a9b94700\")",
        "jobs=2 stall haar T0: 0x3633139bc1cb5b32 0x0000000000000000 57x41 T0 degraded=false esc=0 stall=127572 ovf=0 peak=3239 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=2 stall haar T4: 0xdd133d609838189d 0x0000000000000000 57x41 T4 degraded=false esc=0 stall=104926 ovf=0 peak=2792 mgmt=0 saving=0.0 mse=2.41206675224647 frame=Some(\"0xdd133d609838189d\")",
        "jobs=2 stall raw T0: 0x3633139bc1cb5b32 0x0000000000000000 57x41 T0 degraded=false esc=0 stall=428176 ovf=0 peak=0 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=2 stall legall T2: 0x13dd5fb9a9b94700 0x0000000000000000 57x41 T2 degraded=false esc=0 stall=341682 ovf=0 peak=3696 mgmt=0 saving=0.0 mse=0.1600342319212666 frame=Some(\"0x13dd5fb9a9b94700\")",
        "jobs=2 degrade haar T0: 0xf90d91f82696dc53 0x0000000000000000 57x41 T0 degraded=false esc=128 stall=0 ovf=2565 peak=1508 mgmt=0 saving=0.0 mse=76.59007274283269 frame=Some(\"0xf90d91f82696dc53\")",
        "jobs=2 degrade haar T4: 0xe79ed2e13b382e70 0x0000000000000000 57x41 T4 degraded=false esc=96 stall=0 ovf=2547 peak=1520 mgmt=0 saving=0.0 mse=76.36371416345743 frame=Some(\"0xe79ed2e13b382e70\")",
        "jobs=2 degrade raw T0: 0x3633139bc1cb5b32 0x0000000000000000 57x41 T0 degraded=false esc=0 stall=0 ovf=6128 peak=0 mgmt=0 saving=0.0 mse=0.0 frame=Some(\"0x3633139bc1cb5b32\")",
        "jobs=2 degrade legall T2: 0xbfb32d6850521044 0x0000000000000000 57x41 T2 degraded=false esc=112 stall=0 ovf=5827 peak=2709 mgmt=0 saving=0.0 mse=49.78348309798888 frame=Some(\"0xbfb32d6850521044\")",
    ];

    #[test]
    fn responses_match_the_recorded_characterization() {
        let img = seeded_image(64, 48);
        let pool = ThreadPool::new(2);
        let tele = TelemetryHandle::disabled();
        let mut got = Vec::new();
        for jobs in [0, 2] {
            for overflow_policy in [
                None,
                Some(OverflowPolicy::Stall),
                Some(OverflowPolicy::DegradeLossy),
            ] {
                for (codec, threshold) in [
                    (LineCodecKind::Haar, 0),
                    (LineCodecKind::Haar, 4),
                    (LineCodecKind::Raw, 0),
                    (LineCodecKind::Legall, 2),
                ] {
                    let spec = JobSpec {
                        jobs,
                        overflow_policy,
                        budget_fraction: if overflow_policy.is_some() { 0.25 } else { 1.0 },
                        codec,
                        threshold,
                        ..JobSpec::default()
                    };
                    let mut req = request(spec, &img);
                    req.want_frame = true;
                    let r = execute(&req, &pool, &tele).unwrap();
                    got.push(format!(
                        "jobs={jobs} {} {} T{threshold}: {}",
                        overflow_policy.map_or("none", OverflowPolicy::name),
                        codec.name(),
                        fingerprint(&r)
                    ));
                }
            }
        }
        assert_eq!(got, CHARACTERIZATION, "actual:\n{:#?}", got);
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
        // sharded buffered.
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
}
