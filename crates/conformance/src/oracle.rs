//! Differential oracle engine.
//!
//! Each [`Oracle`] checks one architectural equivalence the paper (or the
//! repo's own contracts) promises, and returns a structured [`Verdict`]
//! that names the *first divergent pixel, row, or field* — the report a
//! human needs to localize a datapath bug, not just a boolean.
//!
//! The engine runs every oracle under `catch_unwind`, so a panicking
//! datapath surfaces as a failing verdict instead of killing the
//! harness — the fuzz driver depends on this to keep shrinking.

use crate::case::{CaseSpec, ContentClass, KernelKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use sw_core::arch::{build_arch, FrameOutput};
use sw_core::codec::LineCodecKind;
use sw_core::config::ArchConfig;
use sw_core::error::SwError;
use sw_core::faults::FaultInjector;
use sw_core::kernels::Tap;
use sw_core::memory_unit::{MemoryUnitConfig, OverflowPolicy};
use sw_core::rtl::RtlCompressedSlidingWindow;
use sw_core::shard::ShardedFrameRunner;
use sw_fpga::fifo::FifoError;
use sw_image::ImageU8;
use sw_pool::ThreadPool;

/// Where two runs first disagreed.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// First divergent pixel, in raster order.
    Pixel {
        /// Column of the first divergent pixel.
        x: usize,
        /// Row of the first divergent pixel.
        y: usize,
        /// Value the checked path produced.
        got: u8,
        /// Value the reference path produced.
        want: u8,
    },
    /// First divergent statistics field.
    Field {
        /// Field name (see `FrameStats::fields`).
        name: String,
        /// Value the checked path produced.
        got: u64,
        /// Value the reference path produced.
        want: u64,
    },
    /// A structural mismatch (one path errored, shapes differ, …).
    Error(String),
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Pixel { x, y, got, want } => {
                write!(
                    f,
                    "first divergent pixel ({x}, {y}): got {got}, want {want}"
                )
            }
            Divergence::Field { name, got, want } => {
                write!(f, "field `{name}`: got {got}, want {want}")
            }
            Divergence::Error(msg) => f.write_str(msg),
        }
    }
}

/// Outcome of one oracle on one case.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The equivalence held.
    Pass,
    /// The oracle does not apply to this case (reason included).
    Skip(String),
    /// The equivalence broke; the divergence names where.
    Fail(Divergence),
}

/// One oracle's structured result on one case.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The oracle that produced this verdict.
    pub oracle: &'static str,
    /// The case it judged ([`CaseSpec::id`]).
    pub case_id: String,
    /// What it found.
    pub outcome: Outcome,
}

impl Verdict {
    /// True when the outcome is a failure.
    pub fn is_fail(&self) -> bool {
        matches!(self.outcome, Outcome::Fail(_))
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.outcome {
            Outcome::Pass => write!(f, "PASS {} [{}]", self.oracle, self.case_id),
            Outcome::Skip(why) => write!(f, "skip {} [{}]: {why}", self.oracle, self.case_id),
            Outcome::Fail(d) => write!(f, "FAIL {} [{}]: {d}", self.oracle, self.case_id),
        }
    }
}

/// A case plus its rendered input, shared across the oracle battery.
pub struct CaseContext {
    /// The case under judgment.
    pub spec: CaseSpec,
    /// The rendered input frame.
    pub image: ImageU8,
}

impl CaseContext {
    /// Render `spec`'s input once for all oracles.
    pub fn new(spec: CaseSpec) -> Self {
        let image = spec.render();
        Self { spec, image }
    }

    /// Run the functional architecture for `cfg` over this case's image.
    fn run(
        &self,
        cfg: &ArchConfig,
        mu: Option<MemoryUnitConfig>,
        fault_seed: Option<u64>,
        kernel: KernelKind,
    ) -> Result<FrameOutput, SwError> {
        let mut arch = build_arch(cfg)?;
        arch.set_memory_unit(mu);
        if let Some(seed) = fault_seed {
            arch.set_fault_injector(Some(FaultInjector::seeded(seed)));
        }
        arch.process_frame(&self.image, kernel.build(cfg.window).as_ref())
    }
}

/// One architectural equivalence check.
pub trait Oracle {
    /// Stable oracle name (appears in verdicts and reproducer files).
    fn name(&self) -> &'static str;
    /// Judge one case.
    fn check(&self, ctx: &CaseContext) -> Outcome;
}

/// First raster-order pixel where two images disagree.
fn first_divergent_pixel(got: &ImageU8, want: &ImageU8) -> Option<Divergence> {
    if got.width() != want.width() || got.height() != want.height() {
        return Some(Divergence::Error(format!(
            "output shapes differ: got {}x{}, want {}x{}",
            got.width(),
            got.height(),
            want.width(),
            want.height()
        )));
    }
    for y in 0..got.height() {
        for x in 0..got.width() {
            let (g, w) = (got.get(x, y), want.get(x, y));
            if g != w {
                return Some(Divergence::Pixel {
                    x,
                    y,
                    got: g,
                    want: w,
                });
            }
        }
    }
    None
}

/// Compare two run results: images pixel-for-pixel, errors string-for-string.
fn compare_runs(got: Result<FrameOutput, SwError>, want: Result<FrameOutput, SwError>) -> Outcome {
    match (got, want) {
        (Ok(a), Ok(b)) => match first_divergent_pixel(&a.image, &b.image) {
            Some(d) => Outcome::Fail(d),
            None => Outcome::Pass,
        },
        (Err(a), Err(b)) => {
            if a.to_string() == b.to_string() {
                Outcome::Pass
            } else {
                Outcome::Fail(Divergence::Error(format!(
                    "both paths errored, differently: `{a}` vs `{b}`"
                )))
            }
        }
        (Ok(_), Err(e)) => Outcome::Fail(Divergence::Error(format!(
            "checked path succeeded but reference errored: {e}"
        ))),
        (Err(e), Ok(_)) => Outcome::Fail(Divergence::Error(format!(
            "checked path errored but reference succeeded: {e}"
        ))),
    }
}

/// Gate shared by most oracles: a valid config, or the reason to skip.
macro_rules! gate_config {
    ($ctx:expr) => {
        match $ctx.spec.config() {
            Ok(cfg) => cfg,
            Err(SwError::Config(msg)) => return Outcome::Skip(format!("config rejected: {msg}")),
            Err(e) => {
                return Outcome::Fail(Divergence::Error(format!(
                    "config rejection was not typed Config: {e}"
                )))
            }
        }
    };
}

/// Invalid geometries must be rejected with a *typed* `SwError::Config` —
/// never a panic, never a wrong-variant error. The complement of the
/// differential oracles: it is the only one that passes on degenerate
/// shapes.
pub struct ConfigRejection;

impl Oracle for ConfigRejection {
    fn name(&self) -> &'static str {
        "ConfigRejection"
    }

    fn check(&self, ctx: &CaseContext) -> Outcome {
        match ctx.spec.config() {
            Err(SwError::Config(_)) => Outcome::Pass,
            Err(e) => Outcome::Fail(Divergence::Error(format!(
                "invalid config rejected with the wrong error variant: {e}"
            ))),
            Ok(cfg) => {
                if ctx.image.height() >= cfg.window {
                    return Outcome::Skip("valid geometry".into());
                }
                // Config is fine but the frame is shorter than the window:
                // the run itself must surface the typed rejection.
                match ctx.run(&cfg, None, None, ctx.spec.kernel) {
                    Err(SwError::Config(_)) => Outcome::Pass,
                    Err(e) => Outcome::Fail(Divergence::Error(format!(
                        "short frame rejected with the wrong error variant: {e}"
                    ))),
                    Ok(_) => Outcome::Fail(Divergence::Error(
                        "short frame was accepted instead of rejected".into(),
                    )),
                }
            }
        }
    }
}

/// Paper Section IV: in lossless mode the compressed architecture is
/// bit-identical to the traditional (raw-buffer) architecture.
pub struct TraditionalVsCompressed;

impl Oracle for TraditionalVsCompressed {
    fn name(&self) -> &'static str {
        "TraditionalVsCompressed"
    }

    fn check(&self, ctx: &CaseContext) -> Outcome {
        if ctx.spec.fault_seed.is_some() {
            return Outcome::Skip("fault injection active".into());
        }
        if ctx.spec.codec == LineCodecKind::Raw {
            return Outcome::Skip("raw codec is the baseline itself".into());
        }
        if !ctx.spec.is_effectively_lossless() {
            return Outcome::Skip("lossy configuration".into());
        }
        let cfg = gate_config!(ctx);
        let raw_cfg = match ArchConfig::builder(cfg.window, cfg.width)
            .codec(LineCodecKind::Raw)
            .build()
        {
            Ok(c) => c,
            Err(e) => return Outcome::Skip(format!("raw baseline unavailable: {e}")),
        };
        let got = ctx.run(&cfg, None, None, ctx.spec.kernel);
        let want = ctx.run(&raw_cfg, None, None, ctx.spec.kernel);
        compare_runs(got, want)
    }
}

/// The RTL-faithful model is bit-identical to the functional model —
/// lossless *and* lossy — wherever an RTL path exists.
pub struct FunctionalVsRtl;

impl Oracle for FunctionalVsRtl {
    fn name(&self) -> &'static str {
        "FunctionalVsRtl"
    }

    fn check(&self, ctx: &CaseContext) -> Outcome {
        if ctx.spec.fault_seed.is_some() {
            return Outcome::Skip("fault injection active (no RTL hooks)".into());
        }
        if !ctx.spec.codec.has_rtl_model() {
            return Outcome::Skip(format!("no RTL model for `{}`", ctx.spec.codec.name()));
        }
        let cfg = gate_config!(ctx);
        if ctx.image.height() < cfg.window {
            return Outcome::Skip("frame shorter than the window".into());
        }
        let kernel = ctx.spec.kernel.build(cfg.window);
        let mut rtl = RtlCompressedSlidingWindow::new(cfg);
        let a = rtl.process_frame(&ctx.image, kernel.as_ref());
        let b = match ctx.run(&cfg, None, None, ctx.spec.kernel) {
            Ok(out) => out,
            Err(e) => {
                return Outcome::Fail(Divergence::Error(format!(
                    "functional model errored where RTL ran: {e}"
                )))
            }
        };
        if let Some(d) = first_divergent_pixel(&a.image, &b.image) {
            return Outcome::Fail(d);
        }
        if a.stats.cycles != b.stats.cycles {
            return Outcome::Fail(Divergence::Field {
                name: "cycles".into(),
                got: a.stats.cycles,
                want: b.stats.cycles,
            });
        }
        Outcome::Pass
    }
}

/// The sharded runner is jobs-invariant for every codec and policy, and
/// matches the sequential architecture exactly when lossless.
pub struct SequentialVsSharded;

/// Strip count the oracle shards at (fixed so verdicts are reproducible).
const ORACLE_STRIPS: usize = 4;

impl SequentialVsSharded {
    fn sharded(
        &self,
        ctx: &CaseContext,
        cfg: &ArchConfig,
        mu: Option<MemoryUnitConfig>,
        jobs: usize,
    ) -> Result<sw_core::shard::ShardedOutput, SwError> {
        let mut runner = ShardedFrameRunner::new(*cfg).with_strips(ORACLE_STRIPS);
        if let Some(mu) = mu {
            runner = runner.with_memory_unit(mu);
        }
        if let Some(seed) = ctx.spec.fault_seed {
            runner = runner.with_fault_injector(FaultInjector::seeded(seed));
        }
        let kernel = ctx.spec.kernel.build(cfg.window);
        let pool = ThreadPool::new(jobs);
        runner.run(&ctx.image, kernel.as_ref(), &pool)
    }
}

impl Oracle for SequentialVsSharded {
    fn name(&self) -> &'static str {
        "SequentialVsSharded"
    }

    fn check(&self, ctx: &CaseContext) -> Outcome {
        let cfg = gate_config!(ctx);
        let mu = match ctx.spec.memory_unit() {
            Ok(mu) => mu,
            Err(e) => return Outcome::Skip(format!("memory-unit probe failed: {e}")),
        };
        let one = self.sharded(ctx, &cfg, mu, 1);
        let many = self.sharded(ctx, &cfg, mu, 3);
        let (one, many) = match (one, many) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(a), Err(b)) => {
                return if a.to_string() == b.to_string() {
                    Outcome::Pass
                } else {
                    Outcome::Fail(Divergence::Error(format!(
                        "jobs=1 and jobs=3 errored differently: `{a}` vs `{b}`"
                    )))
                }
            }
            (Ok(_), Err(e)) => {
                return Outcome::Fail(Divergence::Error(format!(
                    "jobs=1 succeeded but jobs=3 errored: {e}"
                )))
            }
            (Err(e), Ok(_)) => {
                return Outcome::Fail(Divergence::Error(format!(
                    "jobs=3 succeeded but jobs=1 errored: {e}"
                )))
            }
        };
        if let Some(d) = first_divergent_pixel(&many.image, &one.image) {
            return Outcome::Fail(d);
        }
        for (name, got, want) in [
            ("cycles", many.cycles, one.cycles),
            ("stall_cycles", many.stall_cycles, one.stall_cycles),
            ("t_escalations", many.t_escalations, one.t_escalations),
            (
                "overflow_events",
                many.overflow_events as u64,
                one.overflow_events as u64,
            ),
            (
                "peak_payload_occupancy",
                many.peak_payload_occupancy,
                one.peak_payload_occupancy,
            ),
        ] {
            if got != want {
                return Outcome::Fail(Divergence::Field {
                    name: name.into(),
                    got,
                    want,
                });
            }
        }
        // Lossless, unbounded, fault-free: sharding must also match the
        // sequential architecture bit for bit (the lossy sharded result is
        // a *different* deterministic approximation, covered above).
        if ctx.spec.is_effectively_lossless() && mu.is_none() && ctx.spec.fault_seed.is_none() {
            match ctx.run(&cfg, None, None, ctx.spec.kernel) {
                Ok(seq) => {
                    if let Some(d) = first_divergent_pixel(&one.image, &seq.image) {
                        return Outcome::Fail(d);
                    }
                }
                Err(e) => {
                    return Outcome::Fail(Divergence::Error(format!(
                        "sequential run errored where sharded succeeded: {e}"
                    )))
                }
            }
        }
        Outcome::Pass
    }
}

/// Per-trip reconstruction error bound for one threshold step.
///
/// A coefficient with `|c| < T` is zeroed, so one compression trip can
/// move a reconstructed pixel by at most `k·(T−1) + 2` grey levels, where
/// `k` captures how many thresholded coefficients feed one pixel in the
/// codec's inverse transform (Haar: 3, LeGall 5/3: 4, two-level Haar: 8,
/// validated against the corpus). `T ≤ 1` only drops exact zeros and is
/// lossless.
fn per_trip_bound(codec: LineCodecKind, t: i16) -> u64 {
    if t <= 1 || !codec.is_lossy_capable() {
        return 0;
    }
    let k: u64 = match codec {
        LineCodecKind::Haar => 3,
        LineCodecKind::Legall => 4,
        LineCodecKind::Haar2 => 8,
        LineCodecKind::Raw | LineCodecKind::Locoi => 0,
    };
    k * (t as u64 - 1) + 2
}

/// Lossy reconstruction error is bounded by the analytic threshold bound:
/// every buffered pixel takes at most `N − 1` compression trips, each
/// moving it at most `per_trip_bound` grey levels. Lossless cases tighten
/// the bound to zero — an exact round-trip oracle.
pub struct LossyMseBound;

impl Oracle for LossyMseBound {
    fn name(&self) -> &'static str {
        "LossyMseBound"
    }

    fn check(&self, ctx: &CaseContext) -> Outcome {
        if ctx.spec.fault_seed.is_some() {
            return Outcome::Skip("fault injection active".into());
        }
        let cfg = gate_config!(ctx);
        if ctx.image.height() < cfg.window {
            return Outcome::Skip("frame shorter than the window".into());
        }
        let mu = match ctx.spec.memory_unit() {
            Ok(mu) => mu,
            Err(e) => return Outcome::Skip(format!("memory-unit probe failed: {e}")),
        };
        // The top-left tap passes the buffered pixel straight through, so
        // the output *is* the reconstruction — compare against the input.
        let mut arch = match build_arch(&cfg) {
            Ok(a) => a,
            Err(e) => return Outcome::Fail(Divergence::Error(format!("build failed: {e}"))),
        };
        arch.set_memory_unit(mu);
        let out = match arch.process_frame(&ctx.image, &Tap::top_left(cfg.window)) {
            Ok(out) => out,
            Err(SwError::Fifo(FifoError::Overflow { .. }))
                if ctx.spec.policy == Some(OverflowPolicy::Fail) =>
            {
                return Outcome::Skip("budget exhausted under the fail policy".into());
            }
            Err(e) => return Outcome::Fail(Divergence::Error(format!("frame run errored: {e}"))),
        };
        // Under DegradeLossy the threshold may have escalated up to the
        // memory unit's ceiling; bound from the worst threshold reached.
        let t_eff = match (ctx.spec.policy, mu) {
            (Some(OverflowPolicy::DegradeLossy), Some(m)) if ctx.spec.codec.is_lossy_capable() => {
                ctx.spec.threshold.max(m.max_threshold)
            }
            _ => ctx.spec.threshold,
        };
        let bound = per_trip_bound(ctx.spec.codec, t_eff) * (cfg.window as u64 - 1);
        let bound = bound.min(255) as u8;
        let want = ctx.image.crop(0, 0, out.image.width(), out.image.height());
        let mut sq_err = 0u64;
        for y in 0..out.image.height() {
            for x in 0..out.image.width() {
                let (g, w) = (out.image.get(x, y), want.get(x, y));
                let err = g.abs_diff(w);
                sq_err += u64::from(err) * u64::from(err);
                if err > bound {
                    return Outcome::Fail(Divergence::Pixel {
                        x,
                        y,
                        got: g,
                        want: w,
                    });
                }
            }
        }
        let n = (out.image.width() * out.image.height()).max(1) as u64;
        let mse = sq_err as f64 / n as f64;
        let mse_bound = f64::from(bound) * f64::from(bound);
        if mse > mse_bound {
            return Outcome::Fail(Divergence::Error(format!(
                "MSE {mse:.2} exceeds the analytic bound {mse_bound:.2} for T = {t_eff}"
            )));
        }
        Outcome::Pass
    }
}

/// `FrameStats` is internally consistent and reconciles exactly with the
/// overflow policy and budget: packed ≤ raw for lossless haar on smooth
/// content, stall/degrade/overflow counters mutually exclusive per policy,
/// stall cycles word-granular against the peak deficit.
pub struct StatsConsistency;

impl Oracle for StatsConsistency {
    fn name(&self) -> &'static str {
        "StatsConsistency"
    }

    #[allow(clippy::too_many_lines)]
    fn check(&self, ctx: &CaseContext) -> Outcome {
        if ctx.spec.fault_seed.is_some() {
            return Outcome::Skip("fault injection active".into());
        }
        let cfg = gate_config!(ctx);
        let mu = match ctx.spec.memory_unit() {
            Ok(mu) => mu,
            Err(e) => return Outcome::Skip(format!("memory-unit probe failed: {e}")),
        };
        let s = match ctx.run(&cfg, mu, None, ctx.spec.kernel) {
            Ok(out) => out.stats,
            Err(SwError::Config(msg)) => return Outcome::Skip(format!("rejected: {msg}")),
            Err(SwError::Fifo(FifoError::Overflow { .. }))
                if ctx.spec.policy == Some(OverflowPolicy::Fail) =>
            {
                // The fail policy aborting on a tight budget *is* the
                // documented contract; there are no stats to reconcile.
                return Outcome::Pass;
            }
            Err(e) => return Outcome::Fail(Divergence::Error(format!("frame run errored: {e}"))),
        };
        let field = |name: &str, got: u64, want: u64| -> Option<Outcome> {
            (got != want).then(|| {
                Outcome::Fail(Divergence::Field {
                    name: name.into(),
                    got,
                    want,
                })
            })
        };
        let checks = [
            field(
                "cycles",
                s.cycles,
                (ctx.image.width() * ctx.image.height()) as u64,
            ),
            field(
                "payload_bits_total",
                s.payload_bits_total,
                s.per_band_bits_total.iter().sum(),
            ),
            field(
                "peak_total_occupancy",
                s.peak_total_occupancy,
                s.peak_payload_occupancy + s.management_bits,
            ),
            field(
                "management_bits",
                s.management_bits,
                ctx.spec.codec.management_bits(&cfg),
            ),
            field(
                "raw_buffer_bits",
                s.raw_buffer_bits,
                ctx.spec.codec.raw_span_bits(&cfg),
            ),
        ];
        if let Some(fail) = checks.into_iter().flatten().next() {
            return fail;
        }
        if s.peak_payload_occupancy > s.payload_bits_total {
            return Outcome::Fail(Divergence::Field {
                name: "peak_payload_occupancy".into(),
                got: s.peak_payload_occupancy,
                want: s.payload_bits_total,
            });
        }
        // Policy reconciliation: each policy owns exactly one counter.
        match (ctx.spec.policy, mu) {
            (None, _) | (_, None) => {
                if s.stall_cycles != 0 || s.t_escalations != 0 || s.overflow_events != 0 {
                    return Outcome::Fail(Divergence::Error(format!(
                        "no memory unit, yet stall={} escalations={} overflows={}",
                        s.stall_cycles, s.t_escalations, s.overflow_events
                    )));
                }
            }
            (Some(OverflowPolicy::Fail), Some(_)) => {
                // A completed frame under `Fail` by definition never hit a
                // deficit.
                if s.stall_cycles != 0 || s.t_escalations != 0 || s.overflow_events != 0 {
                    return Outcome::Fail(Divergence::Error(format!(
                        "completed fail-policy frame recorded stall={} escalations={} overflows={}",
                        s.stall_cycles, s.t_escalations, s.overflow_events
                    )));
                }
            }
            (Some(OverflowPolicy::Stall), Some(m)) => {
                if s.t_escalations != 0 || s.overflow_events != 0 {
                    return Outcome::Fail(Divergence::Error(format!(
                        "stall policy recorded escalations={} overflows={}",
                        s.t_escalations, s.overflow_events
                    )));
                }
                let over_budget = s.peak_payload_occupancy > m.capacity_bits;
                if over_budget != (s.stall_cycles > 0) {
                    return Outcome::Fail(Divergence::Error(format!(
                        "stall accounting contradicts the budget: peak {} vs capacity {} with {} stall cycles",
                        s.peak_payload_occupancy, m.capacity_bits, s.stall_cycles
                    )));
                }
                if over_budget {
                    let floor = (s.peak_payload_occupancy - m.capacity_bits).div_ceil(36);
                    if s.stall_cycles < floor {
                        return Outcome::Fail(Divergence::Field {
                            name: "stall_cycles".into(),
                            got: s.stall_cycles,
                            want: floor,
                        });
                    }
                }
            }
            (Some(OverflowPolicy::DegradeLossy), Some(m)) => {
                if s.stall_cycles != 0 {
                    return Outcome::Fail(Divergence::Error(format!(
                        "degrade policy recorded {} stall cycles",
                        s.stall_cycles
                    )));
                }
                if !ctx.spec.codec.is_lossy_capable() && s.t_escalations != 0 {
                    return Outcome::Fail(Divergence::Error(format!(
                        "`{}` cannot degrade, yet recorded {} escalations",
                        ctx.spec.codec.name(),
                        s.t_escalations
                    )));
                }
                if ctx.spec.codec.is_lossy_capable()
                    && s.overflow_events == 0
                    && s.peak_payload_occupancy > m.capacity_bits
                {
                    return Outcome::Fail(Divergence::Error(format!(
                        "degrade reported no residual overflow, yet peak {} exceeds capacity {}",
                        s.peak_payload_occupancy, m.capacity_bits
                    )));
                }
            }
        }
        // The paper's headline: the lossless haar span never outgrows the
        // raw span on compressible content — but only in the amortized
        // regime. Fuzzed geometry showed the claim genuinely fails for
        // tiny windows (steep per-pixel gradients blow up the detail
        // coefficients below W=32 at N=4) and for odd widths (the
        // unpaired trailing column rides uncompressed), so the assertion
        // is gated to even widths ≥ 16 with window ≥ 8, where a probe
        // over every content × geometry the fuzzer can reach holds
        // uniformly. (Noise and checkerboards are genuinely
        // incompressible — the claim does not cover them either.)
        let compressible = matches!(
            ctx.spec.content,
            ContentClass::GradientH
                | ContentClass::GradientV
                | ContentClass::Black
                | ContentClass::White
        );
        let amortized =
            ctx.spec.window >= 8 && ctx.spec.width >= 16 && ctx.spec.width.is_multiple_of(2);
        if ctx.spec.codec == LineCodecKind::Haar
            && ctx.spec.threshold == 0
            && s.t_escalations == 0
            && compressible
            && amortized
            && s.peak_total_occupancy > s.raw_buffer_bits
        {
            return Outcome::Fail(Divergence::Field {
                name: "peak_total_occupancy".into(),
                got: s.peak_total_occupancy,
                want: s.raw_buffer_bits,
            });
        }
        Outcome::Pass
    }
}

/// The bit-sliced (SWAR) product path is bit-identical to the scalar
/// reference kernels: same output pixels, same `FrameStats` down to the
/// packed bit counts, same typed error — for every codec, threshold,
/// policy, budget and fault seed. This is the conformance-level lockdown of
/// the `hot_path_equivalence` differential battery.
pub struct HotPathEquivalence;

impl Oracle for HotPathEquivalence {
    fn name(&self) -> &'static str {
        "HotPathEquivalence"
    }

    fn check(&self, ctx: &CaseContext) -> Outcome {
        let sliced_cfg = gate_config!(ctx);
        let scalar_cfg = sliced_cfg.with_scalar_reference();
        let mu = match ctx.spec.memory_unit() {
            Ok(mu) => mu,
            Err(e) => return Outcome::Skip(format!("memory-unit probe failed: {e}")),
        };
        let got = ctx.run(&sliced_cfg, mu, ctx.spec.fault_seed, ctx.spec.kernel);
        let want = ctx.run(&scalar_cfg, mu, ctx.spec.fault_seed, ctx.spec.kernel);
        if let (Ok(a), Ok(b)) = (&got, &want) {
            for ((name, g), (_, w)) in a.stats.fields().into_iter().zip(b.stats.fields()) {
                if g != w {
                    return Outcome::Fail(Divergence::Field {
                        name: name.into(),
                        got: g,
                        want: w,
                    });
                }
            }
        }
        compare_runs(got, want)
    }
}

/// Fault injection must surface as `Ok` or a typed `SwError` — never a
/// panic. The only oracle that runs on fault-seeded cases.
pub struct FaultRobustness;

impl Oracle for FaultRobustness {
    fn name(&self) -> &'static str {
        "FaultRobustness"
    }

    fn check(&self, ctx: &CaseContext) -> Outcome {
        let Some(seed) = ctx.spec.fault_seed else {
            return Outcome::Skip("no fault seed".into());
        };
        let cfg = gate_config!(ctx);
        let mu = match ctx.spec.memory_unit() {
            Ok(mu) => mu,
            Err(e) => return Outcome::Skip(format!("memory-unit probe failed: {e}")),
        };
        match ctx.run(&cfg, mu, Some(seed), ctx.spec.kernel) {
            Ok(_) | Err(_) => Outcome::Pass,
        }
    }
}

/// The full oracle battery, in reporting order.
pub fn all_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(ConfigRejection),
        Box::new(TraditionalVsCompressed),
        Box::new(FunctionalVsRtl),
        Box::new(SequentialVsSharded),
        Box::new(LossyMseBound),
        Box::new(StatsConsistency),
        Box::new(HotPathEquivalence),
        Box::new(FaultRobustness),
    ]
}

/// Run every oracle on one case, converting a panicking datapath into a
/// failing verdict (the harness and fuzzer must keep going).
pub fn run_oracles(ctx: &CaseContext) -> Vec<Verdict> {
    all_oracles()
        .into_iter()
        .map(|oracle| {
            let outcome =
                catch_unwind(AssertUnwindSafe(|| oracle.check(ctx))).unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    Outcome::Fail(Divergence::Error(format!("datapath panicked: {msg}")))
                });
            Verdict {
                oracle: oracle.name(),
                case_id: ctx.spec.id(),
                outcome,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{ContentClass, KernelKind};

    fn spec() -> CaseSpec {
        CaseSpec {
            window: 8,
            width: 24,
            height: 16,
            content: ContentClass::GradientH,
            content_seed: 0,
            kernel: KernelKind::Tap,
            codec: LineCodecKind::Haar,
            threshold: 0,
            policy: None,
            budget_pct: 100,
            fault_seed: None,
        }
    }

    #[test]
    fn lossless_case_passes_every_applicable_oracle() {
        let ctx = CaseContext::new(spec());
        for v in run_oracles(&ctx) {
            assert!(!v.is_fail(), "{v}");
        }
    }

    #[test]
    fn degenerate_case_is_rejected_not_diverged() {
        let mut s = spec();
        s.width = 6; // narrower than the window
        let ctx = CaseContext::new(s);
        let verdicts = run_oracles(&ctx);
        let config = verdicts.iter().find(|v| v.oracle == "ConfigRejection");
        assert!(matches!(config.unwrap().outcome, Outcome::Pass));
        for v in &verdicts {
            assert!(!v.is_fail(), "{v}");
        }
    }

    #[test]
    fn lossy_case_respects_the_analytic_bound() {
        let mut s = spec();
        s.content = ContentClass::Noise;
        s.content_seed = 9;
        s.threshold = 4;
        let ctx = CaseContext::new(s);
        for v in run_oracles(&ctx) {
            assert!(!v.is_fail(), "{v}");
        }
    }
}
