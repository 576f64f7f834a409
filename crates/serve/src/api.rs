//! The versioned, typed job surface of the serving layer.
//!
//! One request type — [`JobRequest`] = tenant + [`JobSpec`] + frame bytes
//! — is the *single* source of truth for "run this workload on this
//! frame". The `swc analyze|sweep|bench` subcommands build their
//! configuration through [`JobSpecBuilder`] (one flag parser for
//! `--codec`, `--jobs`, `--overflow-policy`,
//! `--budget-fraction`, …), the daemon decodes the same type off the
//! socket, and the client/load-generator encodes it back. Encoding is
//! hand-rolled canonical little-endian (see [`crate::wire`]): the same
//! request always produces the same bytes, and every malformed input
//! decodes to a typed error.

use crate::wire::{ByteReader, ByteWriter, WireError};
use sw_bitstream::HotPath;
use sw_core::codec::LineCodecKind;
use sw_core::config::{ArchConfig, ThresholdPolicy};
use sw_core::error::SwError;
use sw_core::kernels::{
    BoxFilter, GaussianFilter, MedianFilter, SobelMagnitude, Tap, WindowKernel,
};
use sw_core::memory_unit::{MemoryUnitConfig, OverflowPolicy};
use sw_core::Coeff;
use sw_image::ImageU8;

/// Cap on the tenant-name field (wire hygiene, not a product limit).
pub const MAX_TENANT_BYTES: usize = 256;

/// Cap on error-detail strings on the wire.
pub const MAX_DETAIL_BYTES: usize = 4096;

/// Cap on one frame dimension. `4096 × 4096` stays comfortably inside
/// [`crate::wire::MAX_FRAME_BYTES`].
pub const MAX_DIM: u32 = 4096;

/// The kernel a served job applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobKernel {
    /// Corner tap — the cheapest operator, exposes the raw buffered
    /// pixels (the conformance corpus default).
    #[default]
    Tap,
    /// N×N box filter.
    Box,
    /// Binomial Gaussian.
    Gaussian,
    /// Median filter.
    Median,
    /// Sobel gradient magnitude.
    Sobel,
}

impl JobKernel {
    /// Every kernel, in wire-tag order.
    pub const ALL: [JobKernel; 5] = [
        JobKernel::Tap,
        JobKernel::Box,
        JobKernel::Gaussian,
        JobKernel::Median,
        JobKernel::Sobel,
    ];

    /// Stable lowercase name (the CLI's `--kernel` values).
    pub fn name(self) -> &'static str {
        match self {
            JobKernel::Tap => "tap",
            JobKernel::Box => "box",
            JobKernel::Gaussian => "gaussian",
            JobKernel::Median => "median",
            JobKernel::Sobel => "sobel",
        }
    }

    /// Parse a [`JobKernel::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Instantiate the kernel at window size `n`.
    pub fn build(self, n: usize) -> Box<dyn WindowKernel> {
        match self {
            JobKernel::Tap => Box::new(Tap::top_left(n)),
            JobKernel::Box => Box::new(BoxFilter::new(n)),
            JobKernel::Gaussian => Box::new(GaussianFilter::new(n)),
            JobKernel::Median => Box::new(MedianFilter::new(n)),
            JobKernel::Sobel => Box::new(SobelMagnitude::new(n)),
        }
    }

    fn tag(self) -> u8 {
        Self::ALL.iter().position(|k| *k == self).unwrap_or(0) as u8
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Self::ALL
            .get(tag as usize)
            .copied()
            .ok_or(WireError::BadTag {
                what: "kernel",
                tag: u32::from(tag),
            })
    }
}

/// Everything that parameterizes one job run, frame excluded.
///
/// `jobs` picks the strip decomposition, never a thread count: 0 and 1
/// run the frame as one strip, any value ≥ 2 runs
/// [`sw_core::shard::DEFAULT_STRIPS`] strips on the executor's pool.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Window size `N`.
    pub window: usize,
    /// Lossy threshold `T` (0 = lossless).
    pub threshold: Coeff,
    /// Which sub-bands the threshold applies to.
    pub policy: ThresholdPolicy,
    /// Line codec buffering the recirculated rows.
    pub codec: LineCodecKind,
    /// The hot-path tag of protocol v1/v2 requests. Carried for wire
    /// compatibility; not read: every job runs the bit-sliced kernels.
    pub hot_path: HotPath,
    /// The served kernel.
    pub kernel: JobKernel,
    /// Strip parallelism: 0 or 1 = one strip, ≥ 2 =
    /// [`sw_core::shard::DEFAULT_STRIPS`] strips (no other value is read).
    pub jobs: usize,
    /// Run the datapath through a capacity-enforced memory unit.
    pub overflow_policy: Option<OverflowPolicy>,
    /// Scale on the planner-provisioned memory-unit budget.
    pub budget_fraction: f64,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            window: 8,
            threshold: 0,
            policy: ThresholdPolicy::default(),
            codec: LineCodecKind::default(),
            hot_path: HotPath::default(),
            kernel: JobKernel::default(),
            jobs: 0,
            overflow_policy: None,
            budget_fraction: 1.0,
        }
    }
}

impl JobSpec {
    /// The validated architecture configuration this spec describes for a
    /// frame of `width` pixels — the one conversion point between the job
    /// surface and the datapath.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] when the frame is too narrow for the window
    /// (`width <= window + 1`), otherwise exactly as
    /// [`ArchConfig::validate`] reports it.
    pub fn arch_config(&self, width: usize) -> Result<ArchConfig, SwError> {
        if width <= self.window + 1 {
            return Err(SwError::config(format!(
                "image width {width} too small for window {}",
                self.window
            )));
        }
        ArchConfig::builder(self.window, width)
            .threshold(self.threshold)
            .policy(self.policy)
            .codec(self.codec)
            .build()
    }

    /// The memory unit this spec runs `img` through: the budget
    /// [`MemoryUnitConfig::provision`] measures for `cfg`, scaled by
    /// `budget_fraction`; `None` without an overflow policy.
    ///
    /// # Errors
    ///
    /// The provisioning probe's [`SwError`].
    pub fn memory_unit(
        &self,
        img: &ImageU8,
        cfg: &ArchConfig,
    ) -> Result<Option<MemoryUnitConfig>, SwError> {
        let Some(policy) = self.overflow_policy else {
            return Ok(None);
        };
        let mut mu = MemoryUnitConfig::provision(img, cfg, policy)?;
        if self.budget_fraction != 1.0 {
            mu.capacity_bits = ((mu.capacity_bits as f64 * self.budget_fraction) as u64).max(1);
        }
        Ok(Some(mu))
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u8(WORKLOAD_WINDOW);
        w.put_u32(self.window as u32);
        w.put_i16(self.threshold);
        w.put_u8(policy_tag(self.policy));
        w.put_u8(codec_tag(self.codec));
        w.put_u8(hot_path_tag(self.hot_path));
        w.put_u8(self.kernel.tag());
        w.put_u32(self.jobs as u32);
        w.put_u8(match self.overflow_policy {
            None => 0,
            Some(OverflowPolicy::Fail) => 1,
            Some(OverflowPolicy::Stall) => 2,
            Some(OverflowPolicy::DegradeLossy) => 3,
        });
        w.put_f64(self.budget_fraction);
    }

    fn decode_from(rd: &mut ByteReader<'_>) -> Result<Self, WireError> {
        check_workload(rd.get_u8()?)?;
        let window = rd.get_u32()? as usize;
        let threshold = rd.get_i16()?;
        let policy = policy_from_tag(rd.get_u8()?)?;
        let codec = codec_from_tag(rd.get_u8()?)?;
        let hot_path = hot_path_from_tag(rd.get_u8()?)?;
        let kernel = JobKernel::from_tag(rd.get_u8()?)?;
        let jobs = rd.get_u32()? as usize;
        let overflow_policy = match rd.get_u8()? {
            0 => None,
            1 => Some(OverflowPolicy::Fail),
            2 => Some(OverflowPolicy::Stall),
            3 => Some(OverflowPolicy::DegradeLossy),
            t => {
                return Err(WireError::BadTag {
                    what: "overflow policy",
                    tag: u32::from(t),
                })
            }
        };
        let budget_fraction = rd.get_f64()?;
        if !(budget_fraction > 0.0 && budget_fraction.is_finite()) {
            return Err(WireError::Corrupt(format!(
                "budget fraction {budget_fraction} must be a positive finite number"
            )));
        }
        Ok(Self {
            window,
            threshold,
            policy,
            codec,
            hot_path,
            kernel,
            jobs,
            overflow_policy,
            budget_fraction,
        })
    }
}

/// One frame's pixels on the wire (8-bit grayscale, raster order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePayload {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// `width × height` bytes, row-major.
    pub pixels: Vec<u8>,
}

impl FramePayload {
    /// Wrap an image for transport.
    pub fn from_image(img: &ImageU8) -> Self {
        Self {
            width: img.width() as u32,
            height: img.height() as u32,
            pixels: img.pixels().to_vec(),
        }
    }

    /// Materialize the frame as an [`ImageU8`].
    pub fn image(&self) -> ImageU8 {
        ImageU8::from_vec(
            self.width as usize,
            self.height as usize,
            self.pixels.clone(),
        )
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.width);
        w.put_u32(self.height);
        w.put_bytes(&self.pixels);
    }

    fn decode_from(rd: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let width = rd.get_u32()?;
        let height = rd.get_u32()?;
        if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
            return Err(WireError::Corrupt(format!(
                "frame dimensions {width}x{height} outside 1..={MAX_DIM}"
            )));
        }
        let expected = width as usize * height as usize;
        let pixels = rd.get_bytes(expected)?;
        if pixels.len() != expected {
            return Err(WireError::Corrupt(format!(
                "frame carries {} pixel bytes, dimensions {width}x{height} need {expected}",
                pixels.len()
            )));
        }
        Ok(Self {
            width,
            height,
            pixels,
        })
    }
}

/// A complete frame-processing job as submitted by a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Tenant the job is accounted to (admission control key).
    pub tenant: String,
    /// Execution parameters.
    pub spec: JobSpec,
    /// The input frame.
    pub frame: FramePayload,
    /// Whether the response should carry the processed output pixels
    /// (digests always travel; the load generator turns pixels off).
    pub want_frame: bool,
}

impl JobRequest {
    /// Canonical encoding (the payload of a [`crate::wire::MsgKind::Job`]
    /// frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.tenant);
        self.spec.encode_into(&mut w);
        self.frame.encode_into(&mut w);
        w.put_u8(u8::from(self.want_frame));
        w.into_bytes()
    }

    /// Decode a canonical encoding. Total: every malformed input is a
    /// typed [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = ByteReader::new(bytes);
        let tenant = rd.get_str(MAX_TENANT_BYTES)?;
        if tenant.is_empty() {
            return Err(WireError::Corrupt("tenant name must be non-empty".into()));
        }
        let spec = JobSpec::decode_from(&mut rd)?;
        let frame = FramePayload::decode_from(&mut rd)?;
        let want_frame = match rd.get_u8()? {
            0 => false,
            1 => true,
            t => {
                return Err(WireError::BadTag {
                    what: "want_frame flag",
                    tag: u32::from(t),
                })
            }
        };
        rd.finish()?;
        Ok(Self {
            tenant,
            spec,
            frame,
            want_frame,
        })
    }
}

/// Header opening a row-streaming job (v2): everything a [`JobRequest`]
/// carries except the pixels. Dimensions travel up front so the daemon
/// admits the job (and reserves its bit budget) before the first row
/// arrives; rows then follow as [`RowChunk`] frames in raster order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOpen {
    /// Tenant the job is accounted to (admission control key).
    pub tenant: String,
    /// Execution parameters.
    pub spec: JobSpec,
    /// Frame width in pixels — fixed for the whole stream.
    pub width: u32,
    /// Total rows the stream will deliver.
    pub height: u32,
    /// Whether the final [`JobResponse`] should carry the output pixels.
    pub want_frame: bool,
}

impl StreamOpen {
    /// Canonical encoding (the payload of a
    /// [`crate::wire::MsgKind::StreamOpen`] frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.tenant);
        self.spec.encode_into(&mut w);
        w.put_u32(self.width);
        w.put_u32(self.height);
        w.put_u8(u8::from(self.want_frame));
        w.into_bytes()
    }

    /// Decode a canonical encoding. Total: every malformed input is a
    /// typed [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = ByteReader::new(bytes);
        let tenant = rd.get_str(MAX_TENANT_BYTES)?;
        if tenant.is_empty() {
            return Err(WireError::Corrupt("tenant name must be non-empty".into()));
        }
        let spec = JobSpec::decode_from(&mut rd)?;
        let width = rd.get_u32()?;
        let height = rd.get_u32()?;
        if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
            return Err(WireError::Corrupt(format!(
                "stream dimensions {width}x{height} outside 1..={MAX_DIM}"
            )));
        }
        let want_frame = match rd.get_u8()? {
            0 => false,
            1 => true,
            t => {
                return Err(WireError::BadTag {
                    what: "want_frame flag",
                    tag: u32::from(t),
                })
            }
        };
        rd.finish()?;
        Ok(Self {
            tenant,
            spec,
            width,
            height,
            want_frame,
        })
    }
}

/// A run of consecutive rows for the open streaming job (v2).
///
/// Chunks are densely sequenced (`seq` 0, 1, 2, …) and carry their
/// absolute position so the daemon can detect gaps, replays and
/// reordering as typed protocol errors instead of silently corrupting
/// the window state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChunk {
    /// 0-based chunk sequence number, strictly increasing by one.
    pub seq: u32,
    /// Row index of the first row in this chunk.
    pub first_row: u32,
    /// Rows in this chunk.
    pub rows: u32,
    /// `rows × width` bytes, row-major (width is fixed by the
    /// [`StreamOpen`] header).
    pub pixels: Vec<u8>,
}

impl RowChunk {
    /// Canonical encoding (the payload of a
    /// [`crate::wire::MsgKind::RowChunk`] frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.seq);
        w.put_u32(self.first_row);
        w.put_u32(self.rows);
        w.put_bytes(&self.pixels);
        w.into_bytes()
    }

    /// Decode a canonical encoding. The pixel count is validated against
    /// the declared row count up to divisibility here; the daemon checks
    /// the exact `rows × width` product against its per-job header.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = ByteReader::new(bytes);
        let seq = rd.get_u32()?;
        let first_row = rd.get_u32()?;
        let rows = rd.get_u32()?;
        if rows == 0 || rows > MAX_DIM {
            return Err(WireError::Corrupt(format!(
                "row chunk declares {rows} rows, outside 1..={MAX_DIM}"
            )));
        }
        let pixels = rd.get_bytes(MAX_DIM as usize * MAX_DIM as usize)?;
        if pixels.is_empty() || pixels.len() % rows as usize != 0 {
            return Err(WireError::Corrupt(format!(
                "row chunk carries {} pixel bytes, not divisible into {rows} rows",
                pixels.len()
            )));
        }
        rd.finish()?;
        Ok(Self {
            seq,
            first_row,
            rows,
            pixels,
        })
    }
}

/// Flow-control credit for a streaming job (v2): the daemon has fully
/// *processed* (not merely buffered) every chunk up to and including
/// `seq`. Clients keep a bounded number of unacknowledged chunks in
/// flight, which is what bounds daemon-side memory per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowAck {
    /// Highest chunk sequence number fully processed.
    pub seq: u32,
    /// Cumulative rows processed so far (progress reporting).
    pub rows_done: u64,
}

impl RowAck {
    /// Canonical encoding (the payload of a
    /// [`crate::wire::MsgKind::RowAck`] frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.seq);
        w.put_u64(self.rows_done);
        w.into_bytes()
    }

    /// Decode a canonical encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = ByteReader::new(bytes);
        let seq = rd.get_u32()?;
        let rows_done = rd.get_u64()?;
        rd.finish()?;
        Ok(Self { seq, rows_done })
    }
}

/// What the daemon reports back for one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResponse {
    /// FNV-1a 64 digest of the processed image. This is the
    /// served-vs-local conformance contract.
    pub digest: u64,
    /// Digest over the full `FrameStats` field vector (sequential runs;
    /// 0 otherwise).
    pub stats_digest: u64,
    /// Output width (`W − N + 1`).
    pub out_width: u32,
    /// Output height.
    pub out_height: u32,
    /// The threshold the job actually ran at (admission may escalate it
    /// under the degrade policy).
    pub effective_threshold: Coeff,
    /// Whether admission control degraded this job.
    pub degraded: bool,
    /// Threshold escalations the datapath's memory unit performed.
    pub t_escalations: u64,
    /// Backpressure cycles charged under the stall policy.
    pub stall_cycles: u64,
    /// Overflow events recorded by the memory unit.
    pub overflow_events: u64,
    /// Peak packed payload occupancy in bits.
    pub peak_payload_occupancy: u64,
    /// Management (NBits + BitMap) bits.
    pub management_bits: u64,
    /// Memory saving versus raw buffering, percent.
    pub memory_saving_pct: f64,
    /// Reconstruction MSE versus the input (0 for lossless runs).
    pub mse: f64,
    /// Nanoseconds the job waited in admission before executing.
    pub queue_ns: u64,
    /// Nanoseconds the datapath ran.
    pub exec_ns: u64,
    /// The processed output pixels, when the request asked for them.
    pub frame: Option<FramePayload>,
}

impl JobResponse {
    /// Canonical encoding (the payload of a
    /// [`crate::wire::MsgKind::JobOk`] frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WORKLOAD_WINDOW);
        w.put_u64(self.digest);
        w.put_u64(self.stats_digest);
        w.put_u32(self.out_width);
        w.put_u32(self.out_height);
        w.put_i16(self.effective_threshold);
        w.put_u8(u8::from(self.degraded));
        w.put_u64(self.t_escalations);
        w.put_u64(self.stall_cycles);
        w.put_u64(self.overflow_events);
        w.put_u64(self.peak_payload_occupancy);
        w.put_u64(self.management_bits);
        w.put_f64(self.memory_saving_pct);
        w.put_f64(self.mse);
        w.put_u64(self.queue_ns);
        w.put_u64(self.exec_ns);
        match &self.frame {
            None => w.put_u8(0),
            Some(f) => {
                w.put_u8(1);
                f.encode_into(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Decode a canonical encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = ByteReader::new(bytes);
        check_workload(rd.get_u8()?)?;
        let digest = rd.get_u64()?;
        let stats_digest = rd.get_u64()?;
        let out_width = rd.get_u32()?;
        let out_height = rd.get_u32()?;
        let effective_threshold = rd.get_i16()?;
        let degraded = match rd.get_u8()? {
            0 => false,
            1 => true,
            t => {
                return Err(WireError::BadTag {
                    what: "degraded flag",
                    tag: u32::from(t),
                })
            }
        };
        let t_escalations = rd.get_u64()?;
        let stall_cycles = rd.get_u64()?;
        let overflow_events = rd.get_u64()?;
        let peak_payload_occupancy = rd.get_u64()?;
        let management_bits = rd.get_u64()?;
        let memory_saving_pct = rd.get_f64()?;
        let mse = rd.get_f64()?;
        let queue_ns = rd.get_u64()?;
        let exec_ns = rd.get_u64()?;
        let frame = match rd.get_u8()? {
            0 => None,
            1 => Some(FramePayload::decode_from(&mut rd)?),
            t => {
                return Err(WireError::BadTag {
                    what: "frame flag",
                    tag: u32::from(t),
                })
            }
        };
        rd.finish()?;
        Ok(Self {
            digest,
            stats_digest,
            out_width,
            out_height,
            effective_threshold,
            degraded,
            t_escalations,
            stall_cycles,
            overflow_events,
            peak_payload_occupancy,
            management_bits,
            memory_saving_pct,
            mse,
            queue_ns,
            exec_ns,
            frame,
        })
    }
}

/// Typed job failure, as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Admission control rejected the job (tenant budget, fail policy).
    Rejected {
        /// The tenant whose budget rejected the job.
        tenant: String,
        /// Why.
        detail: String,
    },
    /// The job's configuration is invalid for its frame.
    Config(String),
    /// The datapath detected corruption or overflowed under `Fail`.
    Execution(String),
    /// The request bytes were malformed.
    Malformed(String),
    /// The daemon failed internally (handler panic, pool failure).
    Internal(String),
}

impl JobError {
    /// Map a datapath error onto the wire taxonomy.
    pub fn from_sw(e: &SwError) -> Self {
        match e {
            SwError::Config(msg) => JobError::Config(msg.clone()),
            other => JobError::Execution(other.to_string()),
        }
    }

    /// Canonical encoding (the payload of a
    /// [`crate::wire::MsgKind::JobErr`] frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            JobError::Rejected { tenant, detail } => {
                w.put_u8(0);
                w.put_str(tenant);
                w.put_str(detail);
            }
            JobError::Config(d) => {
                w.put_u8(1);
                w.put_str(d);
            }
            JobError::Execution(d) => {
                w.put_u8(2);
                w.put_str(d);
            }
            JobError::Malformed(d) => {
                w.put_u8(3);
                w.put_str(d);
            }
            JobError::Internal(d) => {
                w.put_u8(4);
                w.put_str(d);
            }
        }
        w.into_bytes()
    }

    /// Decode a canonical encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = ByteReader::new(bytes);
        let tag = rd.get_u8()?;
        let e = match tag {
            0 => JobError::Rejected {
                tenant: rd.get_str(MAX_TENANT_BYTES)?,
                detail: rd.get_str(MAX_DETAIL_BYTES)?,
            },
            1 => JobError::Config(rd.get_str(MAX_DETAIL_BYTES)?),
            2 => JobError::Execution(rd.get_str(MAX_DETAIL_BYTES)?),
            3 => JobError::Malformed(rd.get_str(MAX_DETAIL_BYTES)?),
            4 => JobError::Internal(rd.get_str(MAX_DETAIL_BYTES)?),
            t => {
                return Err(WireError::BadTag {
                    what: "job error",
                    tag: u32::from(t),
                })
            }
        };
        rd.finish()?;
        Ok(e)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Rejected { tenant, detail } => {
                write!(f, "job rejected for tenant '{tenant}': {detail}")
            }
            JobError::Config(d) => write!(f, "invalid job configuration: {d}"),
            JobError::Execution(d) => write!(f, "job execution failed: {d}"),
            JobError::Malformed(d) => write!(f, "malformed job request: {d}"),
            JobError::Internal(d) => write!(f, "daemon internal error: {d}"),
        }
    }
}

impl std::error::Error for JobError {}

// ---------------------------------------------------------------------------
// Enum ↔ wire tags. Tags are explicit (not discriminants) so reordering a
// Rust enum can never silently change the wire format.

/// The v1/v2 workload byte: reserved, always written as 0 (the sliding
/// window). Tag 1 named the retired integral-image workload; every
/// non-zero byte is rejected.
const WORKLOAD_WINDOW: u8 = 0;

fn check_workload(t: u8) -> Result<(), WireError> {
    if t == WORKLOAD_WINDOW {
        Ok(())
    } else {
        Err(WireError::BadTag {
            what: "workload",
            tag: u32::from(t),
        })
    }
}

fn policy_tag(p: ThresholdPolicy) -> u8 {
    match p {
        ThresholdPolicy::DetailsOnly => 0,
        ThresholdPolicy::AllSubbands => 1,
    }
}

fn policy_from_tag(t: u8) -> Result<ThresholdPolicy, WireError> {
    match t {
        0 => Ok(ThresholdPolicy::DetailsOnly),
        1 => Ok(ThresholdPolicy::AllSubbands),
        t => Err(WireError::BadTag {
            what: "threshold policy",
            tag: u32::from(t),
        }),
    }
}

fn codec_tag(c: LineCodecKind) -> u8 {
    match c {
        LineCodecKind::Raw => 0,
        LineCodecKind::Haar => 1,
        LineCodecKind::Haar2 => 2,
        LineCodecKind::Legall => 3,
        LineCodecKind::Locoi => 4,
    }
}

fn codec_from_tag(t: u8) -> Result<LineCodecKind, WireError> {
    match t {
        0 => Ok(LineCodecKind::Raw),
        1 => Ok(LineCodecKind::Haar),
        2 => Ok(LineCodecKind::Haar2),
        3 => Ok(LineCodecKind::Legall),
        4 => Ok(LineCodecKind::Locoi),
        t => Err(WireError::BadTag {
            what: "codec",
            tag: u32::from(t),
        }),
    }
}

fn hot_path_tag(h: HotPath) -> u8 {
    match h {
        HotPath::Scalar => 0,
        HotPath::Sliced => 1,
    }
}

fn hot_path_from_tag(t: u8) -> Result<HotPath, WireError> {
    match t {
        0 => Ok(HotPath::Scalar),
        1 => Ok(HotPath::Sliced),
        t => Err(WireError::BadTag {
            what: "hot path",
            tag: u32::from(t),
        }),
    }
}

// ---------------------------------------------------------------------------
// The shared flag parser.

/// The one place job-shaped CLI flags are parsed and validated.
///
/// `swc analyze`, `swc sweep`, `swc bench`, `swc client` and `swc load`
/// all route their shared flags through [`JobSpecBuilder::try_flag`], so
/// a value like `--codec zstd` produces the same friendly diagnostic
/// everywhere. Fields record whether they were explicitly set, which the
/// CLI uses to reject knobs that do not apply to a subcommand.
#[derive(Debug, Clone, Default)]
pub struct JobSpecBuilder {
    window: Option<usize>,
    threshold: Option<Coeff>,
    policy: Option<ThresholdPolicy>,
    codec: Option<LineCodecKind>,
    kernel: Option<JobKernel>,
    jobs: Option<usize>,
    overflow_policy: Option<OverflowPolicy>,
    budget_fraction: Option<f64>,
}

impl JobSpecBuilder {
    /// An empty builder: nothing explicitly set, defaults applied at
    /// [`JobSpecBuilder::build`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a `--flag value` pair to the builder. Returns `None` when
    /// the flag is not a job flag (the caller handles it), otherwise the
    /// parse outcome with the canonical diagnostic.
    pub fn try_flag(&mut self, flag: &str, value: &str) -> Option<Result<(), String>> {
        Some(match flag {
            "--window" => self.set_window(value),
            "--threshold" => self.set_threshold(value),
            "--policy" => self.set_policy(value),
            "--codec" => self.set_codec(value),
            "--kernel" => self.set_kernel(value),
            "--jobs" => self.set_jobs(value),
            "--overflow-policy" => self.set_overflow_policy(value),
            "--budget-fraction" => self.set_budget_fraction(value),
            _ => return None,
        })
    }

    /// Parse `--window`.
    pub fn set_window(&mut self, v: &str) -> Result<(), String> {
        self.window = Some(v.parse().map_err(|_| "bad --window".to_string())?);
        Ok(())
    }

    /// Parse `--threshold`.
    pub fn set_threshold(&mut self, v: &str) -> Result<(), String> {
        self.threshold = Some(v.parse().map_err(|_| "bad --threshold".to_string())?);
        Ok(())
    }

    /// Parse `--policy` (threshold sub-band policy).
    pub fn set_policy(&mut self, v: &str) -> Result<(), String> {
        self.policy =
            Some(ThresholdPolicy::parse(v).ok_or_else(|| format!("unknown policy '{v}'"))?);
        Ok(())
    }

    /// Parse `--codec`.
    pub fn set_codec(&mut self, v: &str) -> Result<(), String> {
        self.codec = Some(
            LineCodecKind::parse(v)
                .ok_or_else(|| format!("unknown codec '{v}' (raw, haar, haar2, legall, locoi)"))?,
        );
        Ok(())
    }

    /// Parse `--kernel`.
    pub fn set_kernel(&mut self, v: &str) -> Result<(), String> {
        self.kernel =
            Some(JobKernel::parse(v).ok_or_else(|| {
                format!("unknown kernel '{v}' (tap, box, gaussian, median, sobel)")
            })?);
        Ok(())
    }

    /// Parse `--jobs` (delegates to [`sw_pool::parse_jobs`] for the
    /// canonical diagnostics).
    pub fn set_jobs(&mut self, v: &str) -> Result<(), String> {
        self.jobs = Some(sw_pool::parse_jobs(v)?);
        Ok(())
    }

    /// Parse `--overflow-policy`.
    pub fn set_overflow_policy(&mut self, v: &str) -> Result<(), String> {
        self.overflow_policy = Some(
            OverflowPolicy::parse(v)
                .ok_or_else(|| format!("unknown overflow policy '{v}' (fail, stall, degrade)"))?,
        );
        Ok(())
    }

    /// Parse `--budget-fraction`.
    pub fn set_budget_fraction(&mut self, v: &str) -> Result<(), String> {
        let f: f64 = v.parse().map_err(|_| "bad --budget-fraction".to_string())?;
        if !(f > 0.0 && f.is_finite()) {
            return Err("--budget-fraction must be a positive number".into());
        }
        self.budget_fraction = Some(f);
        Ok(())
    }

    /// The window, if explicitly set.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// The threshold (0 when unset).
    pub fn threshold(&self) -> Coeff {
        self.threshold.unwrap_or(0)
    }

    /// The threshold sub-band policy (details-only when unset).
    pub fn policy(&self) -> ThresholdPolicy {
        self.policy.unwrap_or_default()
    }

    /// Whether `flag` is one of the shared job flags
    /// [`JobSpecBuilder::try_flag`] handles (all of which take a value).
    pub fn is_job_flag(flag: &str) -> bool {
        matches!(
            flag,
            "--window"
                | "--threshold"
                | "--policy"
                | "--codec"
                | "--kernel"
                | "--jobs"
                | "--overflow-policy"
                | "--budget-fraction"
        )
    }

    /// The codec (Haar when unset).
    pub fn codec(&self) -> LineCodecKind {
        self.codec.unwrap_or_default()
    }

    /// Whether `--codec` was explicitly set.
    pub fn codec_set(&self) -> bool {
        self.codec.is_some()
    }

    /// The pool size, if explicitly set.
    pub fn jobs(&self) -> Option<usize> {
        self.jobs
    }

    /// The overflow policy, if explicitly set.
    pub fn overflow_policy(&self) -> Option<OverflowPolicy> {
        self.overflow_policy
    }

    /// The budget fraction (1.0 when unset).
    pub fn budget_fraction(&self) -> f64 {
        self.budget_fraction.unwrap_or(1.0)
    }

    /// Whether any memory-unit knob was set.
    pub fn wants_runtime(&self) -> bool {
        self.overflow_policy.is_some()
    }

    /// Resolve into a concrete [`JobSpec`], applying defaults for
    /// everything not explicitly set. `--window` is required here;
    /// subcommands without a window axis never call `build`.
    pub fn build(&self) -> Result<JobSpec, String> {
        let window = self.window.ok_or("missing --window")?;
        if window < 2 || !window.is_multiple_of(2) {
            return Err("--window must be an even integer >= 2".into());
        }
        Ok(JobSpec {
            window,
            threshold: self.threshold(),
            policy: self.policy.unwrap_or_default(),
            codec: self.codec(),
            hot_path: HotPath::default(),
            kernel: self.kernel.unwrap_or_default(),
            jobs: self.jobs.unwrap_or(0),
            overflow_policy: self.overflow_policy,
            budget_fraction: self.budget_fraction(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> JobRequest {
        JobRequest {
            tenant: "tenant-a".into(),
            spec: JobSpec {
                window: 8,
                threshold: 4,
                policy: ThresholdPolicy::AllSubbands,
                codec: LineCodecKind::Legall,
                hot_path: HotPath::Scalar,
                kernel: JobKernel::Box,
                jobs: 4,
                overflow_policy: Some(OverflowPolicy::Stall),
                budget_fraction: 0.5,
            },
            frame: FramePayload {
                width: 3,
                height: 2,
                pixels: vec![1, 2, 3, 4, 5, 6],
            },
            want_frame: true,
        }
    }

    #[test]
    fn request_round_trips_canonically() {
        let req = sample_request();
        let bytes = req.encode();
        let back = JobRequest::decode(&bytes).unwrap();
        assert_eq!(back, req);
        // Canonical: same value, same bytes.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn response_round_trips() {
        let resp = JobResponse {
            digest: 0xdead_beef_cafe_f00d,
            stats_digest: 7,
            out_width: 57,
            out_height: 57,
            effective_threshold: 6,
            degraded: true,
            t_escalations: 3,
            stall_cycles: 99,
            overflow_events: 1,
            peak_payload_occupancy: 12345,
            management_bits: 678,
            memory_saving_pct: 33.25,
            mse: 0.5,
            queue_ns: 1000,
            exec_ns: 2000,
            frame: Some(FramePayload {
                width: 1,
                height: 1,
                pixels: vec![9],
            }),
        };
        assert_eq!(JobResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn job_errors_round_trip() {
        for e in [
            JobError::Rejected {
                tenant: "t".into(),
                detail: "over budget".into(),
            },
            JobError::Config("window 7 must be even".into()),
            JobError::Execution("overflow".into()),
            JobError::Malformed("tag 9".into()),
            JobError::Internal("panic".into()),
        ] {
            assert_eq!(JobError::decode(&e.encode()).unwrap(), e);
        }
    }

    #[test]
    fn pixel_count_mismatch_is_corrupt() {
        let mut req = sample_request();
        req.frame.pixels.pop();
        assert!(matches!(
            JobRequest::decode(&req.encode()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn builder_parses_every_shared_flag() {
        let mut b = JobSpecBuilder::new();
        for (flag, value) in [
            ("--window", "8"),
            ("--threshold", "4"),
            ("--policy", "all"),
            ("--codec", "legall"),
            ("--kernel", "box"),
            ("--jobs", "4"),
            ("--overflow-policy", "stall"),
            ("--budget-fraction", "0.5"),
        ] {
            b.try_flag(flag, value).expect("job flag").expect("parses");
        }
        assert!(b.try_flag("--metrics-out", "x.json").is_none());
        let spec = b.build().unwrap();
        assert_eq!(spec.codec, LineCodecKind::Legall);
        assert_eq!(spec.overflow_policy, Some(OverflowPolicy::Stall));
        assert_eq!(spec.jobs, 4);
    }

    #[test]
    fn builder_diagnostics_are_canonical() {
        let mut b = JobSpecBuilder::new();
        let msg = b.try_flag("--codec", "zstd").unwrap().unwrap_err();
        assert_eq!(
            msg,
            "unknown codec 'zstd' (raw, haar, haar2, legall, locoi)"
        );
        let msg = b
            .try_flag("--overflow-policy", "explode")
            .unwrap()
            .unwrap_err();
        assert_eq!(
            msg,
            "unknown overflow policy 'explode' (fail, stall, degrade)"
        );
        let msg = b.try_flag("--jobs", "0").unwrap().unwrap_err();
        assert!(msg.contains("at least 1"));
        b.set_window("7").unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            "--window must be an even integer >= 2"
        );
    }
}
