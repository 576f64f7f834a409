//! `datapath`: seeded 512² frames through `build_arch(..).process_frame`
//! in-process, one thread, closed loop, no daemon.
//!
//! The run is a sequence of rounds: one scene preset through each of the
//! three [`LEGS`], presets in turn. One pass over the presets in three
//! feeds its frames row by row (`begin_frame` / `push_row` /
//! `finish_frame`, the path a live served stream takes); the others run
//! whole frames.
//!
//! A shared host moves a closed loop's frame time between speed levels
//! every few seconds (about 1.8× apart on the 2-vCPU VM this was built
//! on), so the median of raw frame times measures how long the run
//! spent at each level. The speed metrics therefore use each frame's
//! best-of-N cost: every (preset, leg) cell is visited about ten times a
//! run, and its fastest visit is the cost the program itself sets.
//! `p50_ms` is the median over presets of a best-of round ÷ 3 (time per
//! frame), and `mpix_s` / `max_ok_jobs_s` the pixel and frame rates of
//! the best-of costs, and `tail_ms` the slowest preset's best-of round
//! ÷ 3. `stream_p50_ms` /
//! `stream_tail_ms` are the median over presets of a percentile over the
//! preset's rows of the best-of `push_row` latency, averaged over legs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sw_core::kernels::WindowKernel;
use sw_core::reference::direct_sliding_window;
use sw_core::{
    build_arch, image_digest, stats_digest, FrameOutput, LineCodecKind, SlidingWindowArch,
};
use sw_image::ImageU8;
use sw_pool::ThreadPool;
use sw_serve::{exec, JobResponse};
use sw_telemetry::TelemetryHandle;

use crate::inputs::{request, scene, LEGS, WINDOW};
use crate::layers::{replay, Replay, SpanSink};
use crate::stats::{median, quantile, residual, sorted, tail};
use crate::trace::{now_ns, Trace};
use crate::{bram_used_pct, vm_hwm_mib, Args, Metrics, Outcome};

/// Frame side.
const SIDE: usize = 512;
/// Scene presets rendered per run.
const FRAMES: usize = 10;
/// Set-ups per run, spread evenly over the timed window so their median
/// does not hang on one moment of the host; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// One pass over the presets in this many is row-streamed.
const STREAM_EVERY: usize = 3;
/// Fixed tail percentile of `stream_tail_ms`: the rule at a preset's
/// `SIDE` = 512 best-of row samples.
const ROW_TAIL_Q: f64 = 0.95;

/// Every leg's architecture and kernel, in [`LEGS`] order.
type Archs = Vec<(Box<dyn SlidingWindowArch + Send>, Box<dyn WindowKernel>)>;

/// What a frame's output must be.
struct Expect {
    digest: u64,
    stats_digest: u64,
    /// The direct golden model's output, for lossless legs.
    reference: Option<ImageU8>,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn matches(out: &FrameOutput, e: &Expect) -> bool {
    image_digest(&out.image) == e.digest
        && stats_digest(&out.stats) == e.stats_digest
        && e.reference
            .as_ref()
            .is_none_or(|r| r.pixels() == out.image.pixels())
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ThreadPool::new(nproc);
    let exec_pool = ThreadPool::new(1);

    // Inputs and references; none of this is set-up time.
    let frames: Vec<ImageU8> = pool.par_map_indexed(FRAMES, |p| scene(args.seed, p, SIDE, SIDE));
    let cells: Vec<(usize, usize)> = (0..FRAMES)
        .flat_map(|f| (0..LEGS.len()).map(move |l| (f, l)))
        .collect();
    let expect: Vec<Result<Expect, String>> = pool.par_map(&cells, |&(f, l)| {
        let leg = &LEGS[l];
        let resp = exec::execute(
            &request(&frames[f], leg),
            &exec_pool,
            &TelemetryHandle::disabled(),
        )
        .map_err(|e| format!("reference execution failed: {e}"))?;
        Ok(Expect {
            digest: resp.digest,
            stats_digest: resp.stats_digest,
            reference: leg
                .lossless()
                .then(|| direct_sliding_window(&frames[f], leg.kernel.build(WINDOW).as_ref())),
        })
    });
    let expect: Vec<Expect> = expect.into_iter().collect::<Result<_, _>>()?;
    let expect_of = |f: usize, l: usize| &expect[f * LEGS.len() + l];
    drop(pool);

    let mut out = Outcome::default();
    let mut m = Metrics::default();

    // Set-up: build every leg's architecture and run one warm-up frame
    // each. The first set-up precedes the window; the others rebuild the
    // architectures at even intervals inside it, outside any frame's
    // timing.
    let mut builds = Vec::new();
    let mut set_up = |archs: &mut Archs, mismatches: &mut u64| -> Result<f64, String> {
        let t = Instant::now();
        archs.clear();
        for (l, leg) in LEGS.iter().enumerate() {
            let cfg = leg
                .spec()
                .arch_config(SIDE)
                .map_err(|e| format!("leg {}: {e}", leg.name))?;
            let tb = Instant::now();
            let mut arch = build_arch(&cfg).map_err(|e| e.to_string())?;
            builds.push(elapsed_ns(tb) as f64 / 1e3);
            let kernel = leg.kernel.build(WINDOW);
            let warm = arch
                .process_frame(&frames[0], kernel.as_ref())
                .map_err(|e| format!("warm-up frame: {e}"))?;
            if !matches(&warm, expect_of(0, l)) {
                *mismatches += 1;
            }
            archs.push((arch, kernel));
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let mut archs = Archs::new();
    let mut setups = vec![set_up(&mut archs, &mut out.mismatches)?];

    let mut round_ms = Vec::new();
    // Best-of-N cost of every (preset, leg) cell: of whole frames, and
    // of every row of streamed frames.
    let mut best = vec![[u64::MAX; 3]; FRAMES];
    let mut best_rows: Vec<[Vec<u64>; 3]> = vec![Default::default(); FRAMES];
    let (mut traced_rounds, mut plain_rounds) = (Vec::new(), Vec::new());
    let mut row_ns = vec![0u64; SIDE];
    let mut savings = Vec::new();
    let mut ok = 0u64;
    let mut layers = Layers::default();

    // Rounds: one frame through every leg, presets in turn. The first of
    // every [`STREAM_EVERY`] passes over the presets is row-streamed;
    // traced runs trace every other pair of rounds.
    let window = Duration::from_secs_f64(args.seconds);
    let setup_gap = window / SETUP_REPS as u32;
    let started = Instant::now();
    let mut round = 0usize;
    while started.elapsed() < window {
        if setups.len() < SETUP_REPS && started.elapsed() >= setup_gap * setups.len() as u32 {
            setups.push(set_up(&mut archs, &mut out.mismatches)?);
        }
        let streamed = (round / FRAMES) % STREAM_EVERY == 0;
        let f = round % FRAMES;
        let traced = args.trace && (round / 2) % 2 == 1;
        round += 1;
        let img = &frames[f];
        let mut round_ns = 0;
        let mut complete = true;
        for (l, (arch, kernel)) in archs.iter_mut().enumerate() {
            out.attempted += 1;
            let t0 = now_ns();
            let t = Instant::now();
            let result = if streamed {
                stream_frame(arch.as_mut(), img, kernel.as_ref(), &mut row_ns)
            } else {
                arch.process_frame(img, kernel.as_ref())
            };
            let ns = elapsed_ns(t);
            let frame = match result {
                Ok(frame) if matches(&frame, expect_of(f, l)) => frame,
                Ok(_) => {
                    out.mismatches += 1;
                    out.failed += 1;
                    complete = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("perfbench: frame {f} leg {} failed: {e}", LEGS[l].name);
                    out.failed += 1;
                    complete = false;
                    continue;
                }
            };
            ok += 1;
            round_ns += ns;
            if streamed {
                let cell = &mut best_rows[f][l];
                if cell.is_empty() {
                    cell.clone_from(&row_ns);
                }
                for (b, &ns) in cell.iter_mut().zip(&row_ns) {
                    *b = (*b).min(ns);
                }
            } else {
                best[f][l] = best[f][l].min(ns);
            }
            if LEGS[l].codec == LineCodecKind::Haar {
                savings.push(frame.stats.memory_saving_pct());
            }
            if traced {
                let job = (round * LEGS.len() + l) as u64;
                let probe = FrameProbe {
                    job,
                    leg: l,
                    img,
                    t0,
                    ns,
                    streamed,
                };
                out.mismatches +=
                    layers.frame(&probe, kernel.as_ref(), &exec_pool, expect_of(f, l))?;
            }
        }
        if !complete {
            continue;
        }
        let ms = round_ns as f64 / LEGS.len() as f64 / 1e6;
        if !streamed {
            round_ms.push(ms);
        }
        if args.trace {
            if traced {
                &mut traced_rounds
            } else {
                &mut plain_rounds
            }
            .push(ms);
        }
    }

    // Best-of-N costs of the presets whose every leg was visited.
    let best: Vec<[u64; 3]> = best
        .into_iter()
        .filter(|c| c.iter().all(|&ns| ns < u64::MAX))
        .collect();
    let best_rows: Vec<[Vec<u64>; 3]> = best_rows
        .into_iter()
        .filter(|c| c.iter().all(|rows| !rows.is_empty()))
        .collect();
    if best.is_empty() || best_rows.is_empty() {
        return Err("the window is too short for one whole and one streamed round".into());
    }
    let best_ms = |c: &[u64; 3]| c.iter().sum::<u64>() as f64 / LEGS.len() as f64 / 1e6;
    let best_rounds = sorted(best.iter().map(best_ms).collect());
    let best_s: f64 = best_rounds.iter().sum::<f64>() * LEGS.len() as f64 / 1e3;
    let frames_n = (best.len() * LEGS.len()) as f64;
    // Each preset's rows, averaged over the legs. A row percentile is
    // taken per preset and the median over presets reported, so a preset
    // whose every streamed visit met a slow moment of the host moves
    // neither figure.
    let preset_rows: Vec<Vec<f64>> = best_rows
        .iter()
        .map(|c| {
            sorted(
                (0..SIDE)
                    .map(|r| {
                        c.iter().map(|rows| rows[r]).sum::<u64>() as f64 / LEGS.len() as f64 / 1e6
                    })
                    .collect(),
            )
        })
        .collect();
    let row_q = |q: f64| {
        median(&sorted(
            preset_rows.iter().map(|r| quantile(r, q)).collect(),
        ))
    };

    let rounds = sorted(round_ms);
    if !tail(&preset_rows[0], ROW_TAIL_Q).1 {
        eprintln!("perfbench: fewer than 10 samples beyond a fixed tail percentile");
    }
    let tail_ms = *best_rounds.last().expect("one preset at least");
    eprintln!(
        "perfbench: whole-frame rounds: {} timed, raw p50 {:.4} p90 {:.4} ms; best-of over {} presets: p50 {:.4} max {:.4} ms",
        rounds.len(),
        median(&rounds),
        quantile(&rounds, 0.9),
        best.len(),
        median(&best_rounds),
        tail_ms
    );
    out.header
        .push(("tail_percentile", format!("[100, {}]", ROW_TAIL_Q * 100.0)));
    out.header
        .push(("tail_samples", format!("[{}, {}]", best.len(), SIDE)));
    m.set("setup_s", median(&sorted(setups)));
    m.set("p50_ms", median(&best_rounds));
    m.set("tail_ms", tail_ms);
    m.set("stream_p50_ms", row_q(0.5));
    m.set("stream_tail_ms", row_q(ROW_TAIL_Q));
    m.set("mpix_s", frames_n * (SIDE * SIDE) as f64 / best_s / 1e6);
    m.set("max_ok_jobs_s", frames_n / best_s);
    m.set("success_ratio", ok as f64 / out.attempted.max(1) as f64);
    m.set("bram_used_pct", bram_used_pct(&savings));
    m.set("peak_rss_mib", vm_hwm_mib("self")?);

    if args.trace {
        for (l, name) in [
            "arch.frame_ms.box_haar_t0",
            "arch.frame_ms.gaussian_haar_t4",
            "arch.frame_ms.sobel_raw",
        ]
        .into_iter()
        .enumerate()
        {
            m.set(
                name,
                median(&sorted(best.iter().map(|c| c[l] as f64 / 1e6).collect())),
            );
        }
        m.set("arch.build_us", median(&sorted(builds)));
        layers.report(&mut m);
        m.set("gen.valid", 1.0);
        m.set("ops.attempted", out.attempted as f64);
        m.set("ops.ok", ok as f64);
        m.set("ops.failed", out.failed as f64);
        m.set(
            "ops.error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        m.set(
            "trace_overhead_pct",
            100.0 * (median(&sorted(traced_rounds)) / median(&sorted(plain_rounds)) - 1.0),
        );
        out.trace = layers.trace;
    }
    out.metrics = m;
    Ok(out)
}

/// Feed `img` row by row, timing each `push_row` into `row_ns`.
fn stream_frame(
    arch: &mut (dyn SlidingWindowArch + Send),
    img: &ImageU8,
    kernel: &dyn WindowKernel,
    row_ns: &mut [u64],
) -> sw_core::error::Result<FrameOutput> {
    arch.begin_frame(img.height())?;
    for (r, ns) in row_ns.iter_mut().enumerate().take(img.height()) {
        let t = Instant::now();
        arch.push_row(img.row(r), kernel)?;
        *ns = elapsed_ns(t);
    }
    arch.finish_frame()
}

/// One timed frame of a traced round.
struct FrameProbe<'a> {
    job: u64,
    leg: usize,
    img: &'a ImageU8,
    t0: u64,
    ns: u64,
    streamed: bool,
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct Layers {
    trace: Trace,
    per_kernel: BTreeMap<&'static str, Replay>,
    all: Replay,
    codec: Replay,
    glue_ns: f64,
    glue_frame_ns: f64,
    negative: u64,
    exec_ms: Vec<f64>,
    exec_ratio: Vec<f64>,
    enabled_ratio: Vec<f64>,
    enc_us: Vec<f64>,
    dec_us: Vec<f64>,
    wire_bytes: Vec<f64>,
}

impl Layers {
    /// Trace one timed frame: its span, a layer replay of the same frame,
    /// and for whole frames the executor and wire encoding of the same
    /// request. Everything after the frame's own span is outside its
    /// timing. Returns the number of digest mismatches found.
    fn frame(
        &mut self,
        p: &FrameProbe<'_>,
        kernel: &dyn WindowKernel,
        exec_pool: &ThreadPool,
        expect: &Expect,
    ) -> Result<u64, String> {
        let (job, leg) = (p.job, &LEGS[p.leg]);
        let name = if p.streamed {
            "arch/push_rows"
        } else {
            "arch/process_frame"
        };
        self.trace.push(name, p.t0, p.t0 + p.ns, None, job, 0);

        let cfg = leg.spec().arch_config(SIDE).map_err(|e| e.to_string())?;
        let r0 = now_ns();
        let root = self.trace.push("replay/frame", r0, r0, None, job, 0);
        let sink = SpanSink {
            trace: &mut self.trace,
            parent: Some(root),
            job,
        };
        let r = replay(p.img, &cfg, kernel, sink);
        self.trace.set_end(root, now_ns());
        self.per_kernel
            .entry(leg.kernel.name())
            .or_default()
            .add(&r);
        self.all.add(&r);
        if leg.codec != LineCodecKind::Raw {
            self.codec.add(&r);
        }
        self.negative += r.negative + r.decode_errors;
        let parts = [
            (r.shift_ns + r.apply_ns) as f64,
            r.encode_ns as f64,
            r.decode_ns as f64,
        ];
        self.glue_ns += residual("frame glue", p.ns as f64, &parts).unwrap_or_else(|e| {
            self.negative += 1;
            e.value
        });
        self.glue_frame_ns += p.ns as f64;
        if p.streamed {
            return Ok(0);
        }

        let req = request(p.img, leg);
        let te = now_ns();
        let t = Instant::now();
        let bytes = req.encode();
        let enc = elapsed_ns(t);
        self.trace.push("api/encode", te, te + enc, None, job, 0);
        self.enc_us.push(enc as f64 / 1e3);
        let mut exec_once = |tele: &TelemetryHandle| -> Result<JobResponse, String> {
            let t0 = now_ns();
            let resp = exec::execute(&req, exec_pool, tele).map_err(|e| e.to_string())?;
            self.trace.push("exec/execute", t0, now_ns(), None, job, 0);
            Ok(resp)
        };
        let plain = exec_once(&TelemetryHandle::disabled())?;
        let enabled = exec_once(&TelemetryHandle::new())?;
        let mismatches = u64::from(plain.digest != expect.digest || enabled.digest != plain.digest);
        self.exec_ms.push(plain.exec_ns as f64 / 1e6);
        self.exec_ratio.push(plain.exec_ns as f64 / p.ns as f64);
        self.enabled_ratio
            .push(enabled.exec_ns as f64 / p.ns as f64);
        let resp_bytes = plain.encode();
        let td = now_ns();
        let t = Instant::now();
        black_box(JobResponse::decode(&resp_bytes).map_err(|e| e.to_string())?);
        let dec = elapsed_ns(t);
        self.trace.push("api/decode", td, td + dec, None, job, 0);
        self.dec_us.push(dec as f64 / 1e3);
        self.wire_bytes
            .push((bytes.len() + resp_bytes.len()) as f64);
        Ok(mismatches)
    }

    fn report(&mut self, m: &mut Metrics) {
        m.set(
            "arch.glue_share",
            self.glue_ns / self.glue_frame_ns.max(1.0),
        );
        set_replay_metrics(m, &self.all, &self.codec, &self.per_kernel);
        let exec_ms = sorted(std::mem::take(&mut self.exec_ms));
        m.set("exec.exec_ms.p50", median(&exec_ms));
        m.set("exec.exec_ms.tail", quantile(&exec_ms, 0.9));
        let take = |v: &mut Vec<f64>| median(&sorted(std::mem::take(v)));
        m.set("exec.vs_local_ratio", take(&mut self.exec_ratio));
        m.set("exec.local_enabled_ratio", take(&mut self.enabled_ratio));
        m.set("api.encode_us", take(&mut self.enc_us));
        m.set("api.decode_us", take(&mut self.dec_us));
        m.set("wire.bytes_per_job", take(&mut self.wire_bytes));
        m.set("layer.negative_residuals", self.negative as f64);
    }
}

/// The window, kernel and codec metrics of a set of replays.
pub fn set_replay_metrics(
    m: &mut Metrics,
    all: &Replay,
    codec: &Replay,
    per_kernel: &BTreeMap<&str, Replay>,
) {
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    m.set("window.shift_ns_per_px", per(all.shift_ns, all.px));
    for (kernel, name) in [
        ("box", "kernels.apply_ns_per_px.box"),
        ("gaussian", "kernels.apply_ns_per_px.gaussian"),
        ("sobel", "kernels.apply_ns_per_px.sobel"),
    ] {
        if let Some(r) = per_kernel.get(kernel) {
            m.set(name, per(r.apply_ns, r.px));
        }
    }
    m.set(
        "codec.encode_ns_per_group",
        per(codec.encode_ns, codec.groups),
    );
    m.set(
        "codec.decode_ns_per_group",
        per(codec.decode_ns, codec.groups),
    );
    m.set("codec.groups_per_frame", per(codec.groups, codec.frames));
    m.set(
        "codec.payload_bits_per_px",
        per(codec.payload_bits, codec.px),
    );
}
