//! Outside-in timing of the datapath's layers.
//!
//! The architecture gives no public hook inside `process_frame`, so the
//! benchmark replays a frame through the same public pieces the datapath
//! is built from — [`ActiveWindow::shift_into`], [`WindowKernel::apply`]
//! on [`ActiveWindow::view`], and the codec's `encode_group_reuse` /
//! `try_decode_group_into` (the calls the datapath makes) — with one
//! timer per row and per layer, never one per pixel or group.

use std::hint::black_box;
use std::time::Instant;

use sw_core::codec::{
    HaarIwtCodec, HaarTwoLevelCodec, LeGall53Codec, LineCodec, LineCodecKind, LocoIPredictiveCodec,
    RawCodec,
};
use sw_core::kernels::WindowKernel;
use sw_core::window::ActiveWindow;
use sw_core::{build_arch, ArchConfig, Coeff};
use sw_image::ImageU8;
use sw_pool::ThreadPool;
use sw_serve::{exec, JobRequest};
use sw_telemetry::TelemetryHandle;

use crate::stats::{median, residual, sorted};
use crate::trace::{now_ns, Trace};

/// Layer totals of one replayed frame.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// Frames replayed.
    pub frames: u64,
    /// Pixels fed (`W × H`).
    pub px: u64,
    /// Σ `shift_into` time, ns.
    pub shift_ns: u64,
    /// Σ kernel time: a shift-and-apply pass minus the shift-only pass.
    pub apply_ns: u64,
    /// Σ `encode_group_reuse` time, ns.
    pub encode_ns: u64,
    /// Σ `try_decode_group_into` time, ns.
    pub decode_ns: u64,
    /// Column groups encoded.
    pub groups: u64,
    /// Payload bits the groups occupy.
    pub payload_bits: u64,
    /// Frames whose kernel residual came out negative (reported, not
    /// hidden).
    pub negative: u64,
    /// Groups that failed to decode.
    pub decode_errors: u64,
}

impl Replay {
    /// Σ of two replays.
    pub fn add(&mut self, o: &Replay) {
        self.frames += o.frames;
        self.px += o.px;
        self.shift_ns += o.shift_ns;
        self.apply_ns += o.apply_ns;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.groups += o.groups;
        self.payload_bits += o.payload_bits;
        self.negative += o.negative;
        self.decode_errors += o.decode_errors;
    }
}

/// Where replay spans go.
pub struct SpanSink<'a> {
    /// The span log.
    pub trace: &'a mut Trace,
    /// Parent span (the frame).
    pub parent: Option<usize>,
    /// Frame/job id.
    pub job: u64,
}

/// Replay `img` through the layers of the architecture `cfg` describes.
pub fn replay(
    img: &ImageU8,
    cfg: &ArchConfig,
    kernel: &dyn WindowKernel,
    sink: SpanSink<'_>,
) -> Replay {
    match cfg.codec {
        LineCodecKind::Raw => replay_with::<RawCodec>(img, cfg, kernel, sink),
        LineCodecKind::Haar => replay_with::<HaarIwtCodec>(img, cfg, kernel, sink),
        LineCodecKind::Haar2 => replay_with::<HaarTwoLevelCodec>(img, cfg, kernel, sink),
        LineCodecKind::Legall => replay_with::<LeGall53Codec>(img, cfg, kernel, sink),
        LineCodecKind::Locoi => replay_with::<LocoIPredictiveCodec>(img, cfg, kernel, sink),
    }
}

fn elapsed(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn replay_with<C: LineCodec<Sample = Coeff>>(
    img: &ImageU8,
    cfg: &ArchConfig,
    kernel: &dyn WindowKernel,
    sink: SpanSink<'_>,
) -> Replay {
    let SpanSink { trace, parent, job } = sink;
    let (w, h, n) = (img.width(), img.height(), cfg.window);
    let mut codec = C::new(cfg);
    let g = codec.group_width();
    let mut shift_only = ActiveWindow::new(n);
    let mut with_kernel = ActiveWindow::new(n);
    let mut evicted = Vec::with_capacity(n);
    // The columns the window sees at row r: rows r−n+1..=r of each image
    // column, zero above the frame (column-major, n pixels each).
    let mut cols = vec![0u8; w * n];
    let mut staged: Vec<Vec<Vec<Coeff>>> = vec![vec![vec![0; n]; g]; w / g];
    let mut encoded: Vec<C::Encoded> = Vec::with_capacity(w / g);
    let mut recycled: Vec<C::Encoded> = Vec::with_capacity(w / g);
    let mut decoded: Vec<Vec<u8>> = Vec::new();
    let mut shift_apply_ns = 0u64;
    let mut r = Replay {
        frames: 1,
        px: (w * h) as u64,
        ..Replay::default()
    };
    for row in 0..h {
        for (c, col) in cols.chunks_exact_mut(n).enumerate() {
            for (k, px) in col.iter_mut().enumerate() {
                let y = (row + k) as isize - (n as isize - 1);
                *px = if y < 0 { 0 } else { img.get(c, y as usize) };
            }
        }
        for (gi, group) in staged.iter_mut().enumerate() {
            for (j, dst) in group.iter_mut().enumerate() {
                let col = &cols[(gi * g + j) * n..(gi * g + j + 1) * n];
                for (d, &p) in dst.iter_mut().zip(col) {
                    *d = Coeff::from(p);
                }
            }
        }

        let t0 = now_ns();
        let t = Instant::now();
        for col in cols.chunks_exact(n) {
            shift_only.shift_into(col, &mut evicted);
        }
        black_box(&evicted);
        let shift = elapsed(t);
        trace.push("window/shift_row", t0, t0 + shift, parent, job, 0);

        let t1 = now_ns();
        let t = Instant::now();
        let mut acc = 0u8;
        for (c, col) in cols.chunks_exact(n).enumerate() {
            with_kernel.shift_into(col, &mut evicted);
            if c + 1 >= n {
                acc ^= kernel.apply(&with_kernel.view());
            }
        }
        black_box(acc);
        let shift_apply = elapsed(t);
        // The kernel span is derived: the tail of the shift-and-apply
        // pass beyond the shift-only pass. A row where the difference is
        // negative (preemption in the shift pass) gets no span; the
        // frame's kernel time is subtracted over the whole frame below.
        if shift_apply > shift {
            let start = t1 + shift;
            trace.push("kernels/apply_row", start, t1 + shift_apply, parent, job, 0);
        }
        r.shift_ns += shift;
        shift_apply_ns += shift_apply;

        let t2 = now_ns();
        let t = Instant::now();
        for group in &staged {
            let e = codec.encode_group_reuse(group, recycled.pop());
            r.payload_bits += e.payload_bits;
            encoded.push(e.data);
        }
        let enc = elapsed(t);
        trace.push("codec/encode_row", t2, t2 + enc, parent, job, 0);

        let t3 = now_ns();
        let t = Instant::now();
        for e in &encoded {
            if codec.try_decode_group_into(e, &mut decoded).is_err() {
                r.decode_errors += 1;
            }
        }
        black_box(&decoded);
        let dec = elapsed(t);
        trace.push("codec/decode_row", t3, t3 + dec, parent, job, 0);

        r.encode_ns += enc;
        r.decode_ns += dec;
        r.groups += encoded.len() as u64;
        recycled.append(&mut encoded);
    }
    match residual("kernel", shift_apply_ns as f64, &[r.shift_ns as f64]) {
        Ok(apply) => r.apply_ns = apply as u64,
        Err(_) => r.negative += 1,
    }
    r
}

/// Local timings of one request, outside any daemon.
#[derive(Debug, Clone, Copy)]
pub struct LocalProbe {
    /// `build_arch(..).process_frame` with no telemetry bound, ns.
    pub frame_ns: f64,
    /// `exec::execute`'s `exec_ns` with an enabled handle, as the daemon
    /// binds one.
    pub exec_enabled_ns: f64,
    /// `build_arch` alone, ns.
    pub build_ns: f64,
}

/// Time `req` locally two ways, alternating so both see the same machine
/// state: the bare architecture, and the executor with telemetry on.
/// Each figure is the median of [`PROBE_REPS`].
pub fn probe_local(req: &JobRequest, pool: &ThreadPool) -> LocalProbe {
    let img = req.frame.image();
    let cfg = req
        .spec
        .arch_config(img.width())
        .expect("benchmark specs are valid");
    let kernel = req.spec.kernel.build(req.spec.window);
    let t = Instant::now();
    let mut arch = build_arch(&cfg).expect("benchmark specs are valid");
    let build_ns = elapsed(t) as f64;
    let mut frames = Vec::new();
    let mut enabled = Vec::new();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        black_box(
            arch.process_frame(&img, kernel.as_ref())
                .expect("local frame"),
        );
        frames.push(elapsed(t) as f64);
        let resp = exec::execute(req, pool, &TelemetryHandle::new())
            .expect("local execution of a benchmark request");
        enabled.push(resp.exec_ns as f64);
    }
    LocalProbe {
        frame_ns: median(&sorted(frames)),
        exec_enabled_ns: median(&sorted(enabled)),
        build_ns,
    }
}

/// Repetitions of each local probe.
pub const PROBE_REPS: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{request, scene, LEGS, SMALL_LEGS};

    #[test]
    fn replay_covers_every_row_and_group() {
        for leg in SMALL_LEGS {
            let img = scene(1, 2, 24, 16);
            let cfg = leg.spec().arch_config(24).unwrap();
            let mut trace = Trace::default();
            let sink = SpanSink {
                trace: &mut trace,
                parent: None,
                job: 0,
            };
            let k = leg.kernel.build(cfg.window);
            let r = replay(&img, &cfg, k.as_ref(), sink);
            let g = cfg.codec.group_width() as u64;
            assert_eq!(r.px, 24 * 16);
            assert_eq!(r.groups, 16 * (24 / g), "{}", leg.name);
            assert_eq!(r.decode_errors, 0, "{}", leg.name);
            assert!(r.payload_bits > 0);
            // Three measured spans per row plus a derived kernel span
            // wherever the kernel pass outlasted the shift-only pass.
            let spans = trace.spans().len() as u64;
            assert!((16 * 3..=16 * 4).contains(&spans), "{spans}");
        }
    }

    #[test]
    fn local_probe_times_both_paths() {
        let img = scene(3, 0, 32, 24);
        let p = probe_local(&request(&img, &LEGS[0]), &ThreadPool::new(1));
        assert!(p.frame_ns > 0.0 && p.exec_enabled_ns > 0.0 && p.build_ns > 0.0);
    }
}
