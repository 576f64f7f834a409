//! `serve-camera` and `serve-small`: the `swc serve` release binary on a
//! unix socket, driven open loop by this process over two connections.
//!
//! The daemon runs as shipped, as its own process, with `--jobs` equal to
//! the machine's parallelism. Every connection walks a seeded schedule;
//! a job that waits behind a busy connection still counts its latency
//! from its own scheduled send time. The timed window is a nominal phase
//! followed by a short rate ladder above it.

use std::collections::BTreeMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sw_pool::ThreadPool;
use sw_serve::client::{ClientError, STREAM_WINDOW};
use sw_serve::wire::{read_frame, write_frame, MsgKind, WireError};
use sw_serve::{
    exec, Client, JobError, JobRequest, JobResponse, Listen, RowAck, RowChunk, StreamOpen,
};
use sw_telemetry::{Report, TelemetryHandle};

use crate::datapath::set_replay_metrics;
use crate::inputs::{constant_arrivals, poisson_arrivals, request, scene, Rng, LEGS, SMALL_LEGS};
use crate::layers::{probe_local, replay, LocalProbe, Replay, SpanSink};
use crate::stats::{
    backlog_at, highest_ok, median, quantile, residual, sorted, step_miss, supported_tail, tail,
    Op, StepObs,
};
use crate::trace::{now_ns, Trace};
use crate::{bram_used_pct, vm_hwm_mib, Args, Metrics, Outcome, Workload, OUT_DIR};

/// Connections (and generator threads): two, no more than the
/// parallelism of the 2-vCPU machines this targets.
const CONNS: usize = 2;

/// How long after the window closes a job may still start.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// A served workload's fixed shape.
struct Plan {
    /// Fixed tail percentile of `tail_ms` / `stream_tail_ms`.
    tail_q: f64,
    /// A ladder step meets its limit only with its tail under this.
    tail_limit_ms: f64,
    /// A run whose generator lateness tail exceeds this is invalid.
    late_bound_ms: f64,
    /// Daemon set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Offered total rate per phase, jobs/s; phase 0 is nominal.
    rates: &'static [f64],
    /// Share of the window per phase.
    shares: &'static [f64],
}

/// Rows per `RowChunk` of streamed jobs.
const CHUNK_ROWS: u32 = 32;

fn plan(w: Workload) -> Plan {
    match w {
        Workload::ServeCamera => Plan {
            // The ≥ 10-beyond rule at the nominal phase's 120 jobs of
            // each kind in a 50 s run (30 s at 4 jobs/s per connection).
            tail_q: 0.9,
            tail_limit_ms: 400.0,
            late_bound_ms: 20.0,
            setup_reps: 5,
            // One worker serves 13–20 jobs/s as the VM's speed drifts.
            // Rungs inside that range pass or miss with the host's speed
            // (1.15× and 1.27× spacings, or the saturated completion
            // rate, spread `max_ok_jobs_s` by 21–31 % over five runs), so
            // the ladder brackets it: 11 always passes, 28 always
            // saturates the daemon. The top step is short, because its
            // backlog drains after the window.
            rates: &[8.0, 11.0, 28.0],
            shares: &[0.6, 0.25, 0.15],
        },
        _ => Plan {
            tail_q: 0.9,
            tail_limit_ms: 25.0,
            late_bound_ms: 10.0,
            setup_reps: 15,
            rates: &[300.0, 900.0, 3000.0],
            shares: &[0.6, 0.2, 0.2],
        },
    }
}

/// The response a request must produce, from `exec::execute` run
/// locally at set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expect {
    digest: u64,
    stats_digest: u64,
    out_width: u32,
    out_height: u32,
}

impl Expect {
    fn of(r: &JobResponse) -> Self {
        Expect {
            digest: r.digest,
            stats_digest: r.stats_digest,
            out_width: r.out_width,
            out_height: r.out_height,
        }
    }
}

/// One request of the workload's pool.
struct Prepared {
    req: JobRequest,
    expect: Expect,
    leg: usize,
    pixels: u64,
    haar: bool,
}

/// The workload's request pool, generated from the seed.
fn prepare(w: Workload, seed: u64) -> Vec<(JobRequest, usize)> {
    let mut rng = Rng::new(seed, 0xF00D);
    match w {
        Workload::ServeCamera => (0..8)
            .map(|p| (request(&scene(seed, p, 256, 256), &LEGS[0]), 0))
            .collect(),
        // Every leg × width × height combination once (6 × 9 × 9), so
        // the seed moves frame content, not the cost mix.
        _ => (0..SMALL_LEGS.len() * 81)
            .map(|i| {
                let leg = i % SMALL_LEGS.len();
                let (w, h) = (16 + (i / 6) % 9, 16 + (i / 54) % 9);
                let preset = rng.below(10);
                (request(&scene(seed, preset, w, h), &SMALL_LEGS[leg]), leg)
            })
            .collect(),
    }
}

/// One scheduled send.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sched {
    due: u64,
    phase: usize,
    req: usize,
    streamed: bool,
}

/// Phase boundaries, ns from the window's start.
fn bounds(plan: &Plan, seconds: f64) -> Vec<u64> {
    let mut acc = 0.0;
    let mut b = vec![0];
    for s in plan.shares {
        acc += s * seconds * 1e9;
        b.push(acc as u64);
    }
    b
}

/// Each connection's schedule. `serve-camera`: connection 0 sends whole
/// frames and connection 1 the same specs streamed, each at half the
/// rate, half an interval apart. `serve-small`: each connection is a
/// Poisson process at half the rate; one job in eight is streamed.
fn schedule(w: Workload, plan: &Plan, seed: u64, seconds: f64, n_reqs: usize) -> Vec<Vec<Sched>> {
    let b = bounds(plan, seconds);
    (0..CONNS)
        .map(|c| {
            let mut rng = Rng::new(seed, 0xA110 + c as u64);
            let mut out = Vec::new();
            for (phase, &rate) in plan.rates.iter().enumerate() {
                let per_conn = rate / CONNS as f64;
                let dues = match w {
                    Workload::ServeCamera => {
                        constant_arrivals(per_conn, b[phase], b[phase + 1], 0.5 * c as f64)
                    }
                    _ => poisson_arrivals(&mut rng, per_conn, b[phase], b[phase + 1]),
                };
                for due in dues {
                    let streamed = match w {
                        Workload::ServeCamera => c == 1,
                        _ => rng.below(8) == 0,
                    };
                    out.push(Sched {
                        due,
                        phase,
                        req: rng.below(n_reqs),
                        streamed,
                    });
                }
            }
            out
        })
        .collect()
}

/// Seconds from the first scheduled send of `jobs` to their last
/// completion: no job of theirs can start before the first.
fn span_s<'a>(jobs: impl Iterator<Item = &'a JobRec> + Clone) -> f64 {
    let first = jobs.clone().map(|j| j.due).min().unwrap_or(0);
    let last = jobs.filter_map(|j| j.done).max().unwrap_or(first);
    (last.max(first + 1) - first) as f64 / 1e9
}

/// Correct completions of `jobs` per second of their span.
fn completion_rate<'a>(jobs: impl Iterator<Item = &'a JobRec> + Clone) -> f64 {
    let ok = jobs.clone().filter(|j| j.end == End::Ok).count();
    ok as f64 / span_s(jobs)
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Ok,
    Rejected,
    Failed,
    Transport,
    Mismatch,
    /// Never sent: the connection reached its due time only after the
    /// window and its drain grace were over. Only an overload step
    /// leaves such jobs; they count against the step, not as attempted
    /// operations.
    Unsent,
}

/// Client-side stamps of one job ([`now_ns`] clock): encode start, write
/// start, write end, reply read, decode end.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps([u64; 5]);

/// One job as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct JobRec {
    phase: usize,
    streamed: bool,
    traced: bool,
    req: usize,
    /// Scheduled send, window clock.
    due: u64,
    /// Completion, window clock.
    done: Option<u64>,
    end: End,
    /// Send time minus schedule, when the connection was idle at `due`.
    late: Option<u64>,
    stamps: Stamps,
    exec_ns: u64,
    queue_ns: u64,
    bytes: u64,
    chunks: u64,
    saving: f64,
}

/// A generator connection: the wire protocol over a unix socket, with
/// client-side stamps around every layer call. Start-up, scraping and
/// shutdown go through [`Client`], which has no stamps to offer.
struct Conn {
    stream: UnixStream,
}

impl Conn {
    fn connect(path: &Path) -> io::Result<Conn> {
        Ok(Conn {
            stream: UnixStream::connect(path)?,
        })
    }

    fn read(&mut self) -> Result<(MsgKind, Vec<u8>), ClientError> {
        read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Wire(WireError::Io("daemon closed the connection".into())))
    }

    /// A whole-frame job: `JobRequest::encode`, `write_frame`, wait,
    /// `JobResponse::decode`.
    fn job(
        &mut self,
        req: &JobRequest,
        st: &mut Stamps,
    ) -> Result<(JobResponse, u64), ClientError> {
        st.0[0] = now_ns();
        let payload = req.encode();
        st.0[1] = now_ns();
        write_frame(&mut self.stream, MsgKind::Job, &payload)?;
        st.0[2] = now_ns();
        let (kind, body) = self.read()?;
        st.0[3] = now_ns();
        let bytes = (payload.len() + body.len()) as u64;
        let r = match kind {
            MsgKind::JobOk => Ok((JobResponse::decode(&body)?, bytes)),
            MsgKind::JobErr => Err(ClientError::Job(JobError::decode(&body)?)),
            k => Err(ClientError::Unexpected(k)),
        };
        st.0[4] = now_ns();
        r
    }

    /// A v2 row-streamed job under the client's ack window: `StreamOpen`,
    /// `RowChunk`s of [`CHUNK_ROWS`] rows, then `JobDone`. Records each
    /// ack's round trip from the write of the chunk it covers.
    fn streamed(
        &mut self,
        req: &JobRequest,
        st: &mut Stamps,
        rtts: &mut Vec<f64>,
    ) -> Result<(JobResponse, u64, u64), ClientError> {
        st.0[0] = now_ns();
        let open = StreamOpen {
            tenant: req.tenant.clone(),
            spec: req.spec.clone(),
            width: req.frame.width,
            height: req.frame.height,
            want_frame: req.want_frame,
        }
        .encode();
        st.0[1] = now_ns();
        write_frame(&mut self.stream, MsgKind::StreamOpen, &open)?;
        let mut bytes = open.len() as u64;
        let (width, height) = (req.frame.width as usize, req.frame.height);
        let mut sent_at: Vec<u64> = Vec::new();
        let mut acked: Option<u32> = None;
        let mut first_row = 0u32;
        while first_row < height {
            let rows = CHUNK_ROWS.min(height - first_row);
            let lo = first_row as usize * width;
            let chunk = RowChunk {
                seq: sent_at.len() as u32,
                first_row,
                rows,
                pixels: req.frame.pixels[lo..lo + rows as usize * width].to_vec(),
            }
            .encode();
            write_frame(&mut self.stream, MsgKind::RowChunk, &chunk)?;
            sent_at.push(now_ns());
            bytes += chunk.len() as u64;
            first_row += rows;
            let outstanding = |acked: Option<u32>, next: usize| match acked {
                None => next,
                Some(a) => next.saturating_sub(a as usize + 1),
            };
            while outstanding(acked, sent_at.len()) >= STREAM_WINDOW {
                match self.read()? {
                    (MsgKind::RowAck, p) => {
                        let ack = RowAck::decode(&p)?;
                        rtts.extend(ack_rtt(&sent_at, ack.seq));
                        acked = Some(ack.seq);
                    }
                    (MsgKind::JobErr, p) => return Err(ClientError::Job(JobError::decode(&p)?)),
                    (k, _) => return Err(ClientError::Unexpected(k)),
                }
            }
        }
        st.0[2] = now_ns();
        loop {
            match self.read()? {
                (MsgKind::RowAck, p) => {
                    let ack = RowAck::decode(&p)?;
                    rtts.extend(ack_rtt(&sent_at, ack.seq));
                }
                (MsgKind::JobDone, p) => {
                    st.0[3] = now_ns();
                    let resp = JobResponse::decode(&p)?;
                    st.0[4] = now_ns();
                    bytes += p.len() as u64;
                    return Ok((resp, bytes, sent_at.len() as u64));
                }
                (MsgKind::JobErr, p) => return Err(ClientError::Job(JobError::decode(&p)?)),
                (k, _) => return Err(ClientError::Unexpected(k)),
            }
        }
    }
}

/// Milliseconds from the write of chunk `seq` to now, if `seq` was sent.
fn ack_rtt(sent_at: &[u64], seq: u32) -> Option<f64> {
    let sent = *sent_at.get(seq as usize)?;
    Some((now_ns() - sent) as f64 / 1e6)
}

/// The daemon child process; killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// A control-plane client on its own connection.
    fn client(&self) -> Result<Client, ClientError> {
        Client::connect(&Listen::Unix(self.sock.clone()))
    }

    /// Spawn `swc serve` and wait until it answers a ping.
    fn spawn(args: &Args, jobs: usize, rep: usize) -> Result<Daemon, String> {
        let sock = Path::new(OUT_DIR).join(format!("swcd-{}-{rep}.sock", std::process::id()));
        let log = std::fs::File::create(
            Path::new(OUT_DIR).join(format!("swcd-{}.log", args.workload.name())),
        )
        .map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(&args.swc)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--jobs")
            .arg(jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.swc.display()))?;
        let mut d = Daemon { child, sock };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if d.client().and_then(|mut c| c.ping(b"perfbench")).is_ok() {
                return Ok(d);
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer a ping within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Ask for a clean shutdown and reap the process.
    fn stop(mut self) -> Result<(), String> {
        let asked = self.client().and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map_err(|e| format!("shutdown: {e}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit within 20 s of a shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Classify a job result and check it against its reference.
fn settle(
    result: Result<(JobResponse, u64, u64), ClientError>,
    p: &Prepared,
    rec: &mut JobRec,
) -> End {
    match result {
        Ok((resp, bytes, chunks)) => {
            rec.exec_ns = resp.exec_ns;
            rec.queue_ns = resp.queue_ns;
            rec.bytes = bytes;
            rec.chunks = chunks;
            rec.saving = resp.memory_saving_pct;
            if Expect::of(&resp) == p.expect {
                End::Ok
            } else {
                End::Mismatch
            }
        }
        Err(ClientError::Job(JobError::Rejected { .. })) => End::Rejected,
        Err(ClientError::Job(_)) => End::Failed,
        Err(_) => End::Transport,
    }
}

/// Run one request on `conn`.
fn submit(
    conn: &mut Conn,
    p: &Prepared,
    streamed: bool,
    st: &mut Stamps,
    rtts: &mut Vec<f64>,
) -> Result<(JobResponse, u64, u64), ClientError> {
    if streamed {
        conn.streamed(&p.req, st, rtts)
    } else {
        conn.job(&p.req, st).map(|(r, b)| (r, b, 0))
    }
}

/// Spans of one traced job: the client's layer calls plus the daemon's
/// reported queue and execution times, placed inside the wait they
/// happened in (their positions are derived; their lengths are
/// measured).
fn record_spans(t: &mut Trace, r: &JobRec, epoch: u64, job: u64, tid: u32) -> u64 {
    let s = r.stamps.0;
    let mut negative = 0;
    if let Some(late) = r.late.filter(|&l| l > 0) {
        t.push(
            "gen/late",
            epoch + r.due,
            epoch + r.due + late,
            None,
            job,
            tid,
        );
    }
    let root = t.push(
        if r.streamed {
            "job/stream"
        } else {
            "job/whole"
        },
        s[0],
        s[4],
        None,
        job,
        tid,
    );
    t.push("api/encode", s[0], s[1], Some(root), job, tid);
    if r.streamed {
        // A live stream executes while its rows arrive, interleaved with
        // the chunk writes and ack waits; its queue and execution times
        // are reported as metrics, not placed as spans.
        t.push("stream/send", s[1], s[2], Some(root), job, tid);
        t.push("reactor/wait", s[2], s[3], Some(root), job, tid);
    } else {
        // The round trip's self time is the reactor overhead. The daemon
        // may run the job before the client's write call returns, so the
        // queue and exec spans are placed to end at the reply and may
        // overlap the write.
        let trip = t.push("reactor/roundtrip", s[1], s[3], Some(root), job, tid);
        t.push("wire/write", s[1], s[2], Some(trip), job, tid);
        let parts = [r.queue_ns as f64, r.exec_ns as f64];
        let exec_start = match residual("reactor overhead", (s[3] - s[1]) as f64, &parts) {
            Ok(_) => s[3] - r.exec_ns,
            Err(_) => {
                negative += 1;
                s[3].saturating_sub(r.exec_ns).max(s[1])
            }
        };
        let queue_start = exec_start.saturating_sub(r.queue_ns).max(s[1]);
        t.push(
            "tenant/queue",
            queue_start,
            exec_start,
            Some(trip),
            job,
            tid,
        );
        t.push("exec/run", exec_start, s[3], Some(trip), job, tid);
    }
    t.push("api/decode", s[3], s[4], Some(root), job, tid);
    negative
}

/// What one generator connection brings back.
#[derive(Default)]
struct ConnRun {
    jobs: Vec<JobRec>,
    rtts: Vec<f64>,
    trace: Trace,
    negative: u64,
}

/// Walk one connection's schedule.
fn drive(
    sock: &Path,
    sched: &[Sched],
    reqs: &[Prepared],
    epoch: u64,
    window_end: u64,
    traced: bool,
    tid: u32,
) -> ConnRun {
    let mut out = ConnRun::default();
    let mut conn = Conn::connect(sock).ok();
    let mut last_done = 0u64;
    for (i, s) in sched.iter().enumerate() {
        let p = &reqs[s.req];
        let mut rec = JobRec {
            phase: s.phase,
            streamed: s.streamed,
            traced: traced && i % 2 == 1,
            req: s.req,
            due: s.due,
            done: None,
            end: End::Unsent,
            late: None,
            stamps: Stamps::default(),
            exec_ns: 0,
            queue_ns: 0,
            bytes: 0,
            chunks: 0,
            saving: 0.0,
        };
        let now = now_ns() - epoch;
        if now < s.due {
            std::thread::sleep(Duration::from_nanos(s.due - now));
        }
        let sent = now_ns() - epoch;
        if sent > window_end + DRAIN_GRACE.as_nanos() as u64 {
            out.jobs.push(rec);
            continue;
        }
        if last_done <= s.due {
            rec.late = Some(sent.saturating_sub(s.due));
        }
        if conn.is_none() {
            conn = Conn::connect(sock).ok();
        }
        rec.end = match conn.as_mut() {
            None => End::Transport,
            Some(c) => {
                let r = submit(c, p, s.streamed, &mut rec.stamps, &mut out.rtts);
                settle(r, p, &mut rec)
            }
        };
        if rec.end == End::Transport {
            // The connection is unusable after a transport error.
            conn = None;
        }
        last_done = now_ns() - epoch;
        rec.done = Some(last_done);
        if rec.traced && rec.end == End::Ok {
            out.negative += record_spans(
                &mut out.trace,
                &rec,
                epoch,
                i as u64 * CONNS as u64 + tid as u64,
                tid,
            );
        }
        out.jobs.push(rec);
    }
    out
}

/// Per-layer figures of the workload's own requests, run locally: the
/// architecture, window, kernel and codec replay of the first
/// [`LOCAL_PROBES`] requests, and their local timings for the
/// served-vs-local ratios.
fn local_layers(
    reqs: &[Prepared],
    exec_pool: &ThreadPool,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<BTreeMap<usize, LocalProbe>, String> {
    let mut probes = BTreeMap::new();
    let mut all = Replay::default();
    let mut codec = Replay::default();
    let mut per_kernel: BTreeMap<&str, Replay> = BTreeMap::new();
    let (mut glue, mut frame_sum, mut negative) = (0.0, 0.0, 0u64);
    for (i, p) in reqs.iter().enumerate().take(LOCAL_PROBES) {
        let probe = probe_local(&p.req, exec_pool);
        let img = p.req.frame.image();
        let cfg = p
            .req
            .spec
            .arch_config(img.width())
            .map_err(|e| e.to_string())?;
        let kernel = p.req.spec.kernel.build(p.req.spec.window);
        let t0 = now_ns();
        let root = trace.push("replay/frame", t0, t0, None, i as u64, 9);
        let r = replay(
            &img,
            &cfg,
            kernel.as_ref(),
            SpanSink {
                trace,
                parent: Some(root),
                job: i as u64,
            },
        );
        trace.set_end(root, now_ns());
        negative += r.negative + r.decode_errors;
        let parts = [
            (r.shift_ns + r.apply_ns) as f64,
            r.encode_ns as f64,
            r.decode_ns as f64,
        ];
        glue += residual("frame glue", probe.frame_ns, &parts).unwrap_or_else(|e| {
            negative += 1;
            e.value
        });
        frame_sum += probe.frame_ns;
        all.add(&r);
        if cfg.codec != sw_core::LineCodecKind::Raw {
            codec.add(&r);
        }
        per_kernel
            .entry(p.req.spec.kernel.name())
            .or_default()
            .add(&r);
        probes.insert(i, probe);
    }
    for (l, name) in [
        "arch.frame_ms.box_haar_t0",
        "arch.frame_ms.gaussian_haar_t4",
        "arch.frame_ms.sobel_raw",
    ]
    .into_iter()
    .enumerate()
    {
        let v: Vec<f64> = probes
            .iter()
            .filter(|(i, _)| reqs[**i].leg == l)
            .map(|(_, p)| p.frame_ns / 1e6)
            .collect();
        if !v.is_empty() {
            m.set(name, median(&sorted(v)));
        }
    }
    m.set(
        "arch.build_us",
        median(&sorted(probes.values().map(|p| p.build_ns / 1e3).collect())),
    );
    m.set("arch.glue_share", glue / frame_sum.max(1.0));
    m.set(
        "exec.local_enabled_ratio",
        median(&sorted(
            probes
                .values()
                .map(|p| p.exec_enabled_ns / p.frame_ns)
                .collect(),
        )),
    );
    set_replay_metrics(m, &all, &codec, &per_kernel);
    m.set("layer.negative_residuals", negative as f64);
    Ok(probes)
}

/// Requests replayed and probed locally in a traced run.
const LOCAL_PROBES: usize = 64;

/// Set-up: daemon spawn to its first ping plus warm-up jobs on both
/// connections, `plan.setup_reps` times. Returns the last daemon, still
/// running, and every set-up's duration in seconds.
fn set_up(
    args: &Args,
    plan: &Plan,
    reqs: &[Prepared],
    jobs: usize,
    mismatches: &mut u64,
) -> Result<(Daemon, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for rep in 0..plan.setup_reps {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let t = Instant::now();
        let d = Daemon::spawn(args, jobs, rep)?;
        for c in 0..CONNS {
            let mut conn = Conn::connect(&d.sock).map_err(|e| format!("connect: {e}"))?;
            for (k, streamed) in [(0, false), (1, true), (2, false)] {
                let p = &reqs[(c * 3 + k) % reqs.len()];
                let r = submit(
                    &mut conn,
                    p,
                    streamed,
                    &mut Stamps::default(),
                    &mut Vec::new(),
                );
                match r {
                    Ok((resp, _, _)) if Expect::of(&resp) == p.expect => {}
                    Ok(_) => *mismatches += 1,
                    Err(e) => return Err(format!("warm-up job failed: {e}")),
                }
            }
        }
        setups.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    Ok((daemon.ok_or("no set-up ran")?, setups))
}

/// The daemon's counters, fetched on their own connection.
fn scrape(daemon: &Daemon) -> Result<BTreeMap<String, u64>, String> {
    let text = daemon
        .client()
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("metrics scrape: {e}"))?;
    Ok(Report::from_prometheus(&text)?.counters)
}

/// Run a served workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let plan = plan(w);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ThreadPool::new(jobs);
    let exec_pool = ThreadPool::new(1);

    // Inputs and their references; none of this is set-up time.
    let raw = prepare(w, args.seed);
    let expect: Vec<Result<Expect, String>> = pool.par_map(&raw, |(req, _)| {
        exec::execute(req, &exec_pool, &TelemetryHandle::disabled())
            .map(|r| Expect::of(&r))
            .map_err(|e| format!("reference execution failed: {e}"))
    });
    let reqs: Vec<Prepared> = raw
        .into_iter()
        .zip(expect)
        .map(|((req, leg), e)| {
            Ok(Prepared {
                pixels: u64::from(req.frame.width) * u64::from(req.frame.height),
                haar: req.spec.codec == sw_core::LineCodecKind::Haar,
                expect: e?,
                req,
                leg,
            })
        })
        .collect::<Result<_, String>>()?;
    drop(pool);
    let scheds = schedule(w, &plan, args.seed, args.seconds, reqs.len());

    let mut out = Outcome::default();
    let mut m = Metrics::default();
    out.header.push(("daemon_jobs", jobs.to_string()));
    out.header.push(("connections", CONNS.to_string()));
    out.header
        .push(("rates_jobs_s", format!("{:?}", plan.rates)));

    let probes = if args.trace {
        local_layers(&reqs, &exec_pool, &mut out.trace, &mut m)?
    } else {
        BTreeMap::new()
    };

    let (daemon, setups) = set_up(args, &plan, &reqs, jobs, &mut out.mismatches)?;

    let before = args.trace.then(|| scrape(&daemon)).transpose()?;

    // The timed window.
    let b = bounds(&plan, args.seconds);
    let window_end = *b.last().expect("phases");
    let epoch = now_ns();
    let go = |c: usize| {
        drive(
            &daemon.sock,
            &scheds[c],
            &reqs,
            epoch,
            window_end,
            args.trace,
            c as u32,
        )
    };
    // Connection 0 runs on this thread: one generator thread per
    // connection, no more.
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let others: Vec<_> = (1..CONNS).map(|c| s.spawn(move || go(c))).collect();
        let mut runs = vec![go(0)];
        runs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked")),
        );
        runs
    });

    let after = args.trace.then(|| scrape(&daemon)).transpose()?;
    let rss = vm_hwm_mib(&daemon.pid())?;
    daemon.stop()?;

    let mut jobs_all: Vec<JobRec> = Vec::new();
    let mut rtts = Vec::new();
    let mut negative = 0;
    for r in runs {
        jobs_all.extend(r.jobs);
        rtts.extend(r.rtts);
        out.trace.merge(r.trace);
        negative += r.negative;
    }
    let count = |e: End| jobs_all.iter().filter(|j| j.end == e).count() as u64;
    let unsent = count(End::Unsent);
    out.attempted = jobs_all.len() as u64 - unsent;
    let ok = count(End::Ok);
    out.failed = out.attempted - ok;
    out.mismatches += count(End::Mismatch);

    // Latency from the scheduled send, per phase.
    let ms = |j: &JobRec| (j.done.unwrap_or(0) - j.due) as f64 / 1e6;
    let nominal = |streamed: bool| {
        sorted(
            jobs_all
                .iter()
                .filter(|j| j.phase == 0 && j.streamed == streamed && j.end == End::Ok)
                .map(ms)
                .collect(),
        )
    };
    let (whole, stream) = (nominal(false), nominal(true));
    eprintln!(
        "perfbench: nominal whole-frame latency: {} samples, p50 {:.4} p75 {:.4} p90 {:.4} p99 {:.4} ms",
        whole.len(),
        median(&whole),
        quantile(&whole, 0.75),
        quantile(&whole, 0.9),
        quantile(&whole, 0.99)
    );
    let (tail_ms, ok_a) = tail(&whole, plan.tail_q);
    let (stream_tail_ms, ok_b) = tail(&stream, plan.tail_q);
    if !(ok_a && ok_b) {
        eprintln!(
            "perfbench: fewer than 10 samples beyond the p{}",
            plan.tail_q * 100.0
        );
    }
    out.header
        .push(("tail_percentile", (plan.tail_q * 100.0).to_string()));
    out.header.push((
        "tail_samples",
        format!("[{}, {}]", whole.len(), stream.len()),
    ));

    // The ladder: nominal phase first, each step judged on its tail, its
    // failures and its backlog.
    let ops: Vec<Op> = jobs_all
        .iter()
        .map(|j| Op {
            due: j.due,
            done: j.done,
        })
        .collect();
    let mut misses = Vec::new();
    let mut achieved = Vec::new();
    let mut busy = Vec::new();
    for (phase, &rate) in plan.rates.iter().enumerate() {
        let in_phase: Vec<&JobRec> = jobs_all.iter().filter(|j| j.phase == phase).collect();
        let lat = sorted(
            in_phase
                .iter()
                .filter(|j| j.end == End::Ok)
                .map(|j| ms(j))
                .collect(),
        );
        let q = supported_tail(lat.len()).unwrap_or(0.5).min(plan.tail_q);
        let obs = StepObs {
            tail_ms: quantile(&lat, q),
            failures: in_phase.iter().filter(|j| j.end != End::Ok).count() as u64,
            backlog_start: backlog_at(&ops, b[phase]),
            backlog_end: backlog_at(&ops, b[phase + 1]),
            offered: in_phase.len() as u64,
        };
        let slack = (2 * CONNS as i64).max(obs.offered as i64 / 50);
        let miss = step_miss(&obs, plan.tail_limit_ms, slack);
        let secs = span_s(in_phase.iter().copied());
        eprintln!(
            "perfbench: step {phase} at {rate} jobs/s: {} offered, tail {:.3} ms, backlog {} -> {}: {}",
            obs.offered,
            obs.tail_ms,
            obs.backlog_start,
            obs.backlog_end,
            miss.as_deref().unwrap_or("meets its limit")
        );
        misses.push(miss);
        achieved.push(completion_rate(in_phase.iter().copied()));
        let exec_sum: u64 = in_phase.iter().map(|j| j.exec_ns).sum();
        busy.push(exec_sum as f64 / (secs * 1e9 * jobs as f64));
    }

    let ok_jobs = || jobs_all.iter().filter(|j| j.end == End::Ok);
    let savings: Vec<f64> = ok_jobs()
        .filter(|j| reqs[j.req].haar)
        .map(|j| j.saving)
        .collect();

    m.set("setup_s", median(&sorted(setups)));
    m.set("p50_ms", median(&whole));
    m.set("tail_ms", tail_ms);
    m.set("stream_p50_ms", median(&stream));
    m.set("stream_tail_ms", stream_tail_ms);
    m.set(
        "mpix_s",
        median(&sorted(
            ok_jobs()
                .filter(|j| j.phase == 0)
                .map(|j| reqs[j.req].pixels as f64 / j.exec_ns.max(1) as f64 * 1e3)
                .collect(),
        )),
    );
    m.set(
        "max_ok_jobs_s",
        highest_ok(&misses).map_or(0.0, |i| achieved[i]),
    );
    m.set("success_ratio", ok as f64 / out.attempted.max(1) as f64);
    m.set("bram_used_pct", bram_used_pct(&savings));
    m.set("peak_rss_mib", rss);

    // Generator honesty: lateness of sends the connection was free for.
    let late = sorted(
        jobs_all
            .iter()
            .filter_map(|j| j.late)
            .map(|l| l as f64 / 1e6)
            .collect(),
    );
    let late_q = supported_tail(late.len()).unwrap_or(0.5);
    let late_tail = quantile(&late, late_q);
    let valid = late_tail <= plan.late_bound_ms;
    out.header.push(("valid", valid.to_string()));
    if !valid {
        eprintln!(
            "perfbench: run invalid: generator lateness p{} {late_tail:.3} ms exceeds {} ms",
            late_q * 100.0,
            plan.late_bound_ms
        );
    }

    if args.trace {
        let whole_ok: Vec<&JobRec> = ok_jobs().filter(|j| !j.streamed).collect();
        let st = |j: &JobRec, a: usize, b: usize| (j.stamps.0[b] - j.stamps.0[a]) as f64;
        let exec_ms = sorted(ok_jobs().map(|j| j.exec_ns as f64 / 1e6).collect());
        m.set("exec.exec_ms.p50", median(&exec_ms));
        m.set("exec.exec_ms.tail", quantile(&exec_ms, plan.tail_q));
        m.set(
            "exec.vs_local_ratio",
            median(&sorted(
                whole_ok
                    .iter()
                    .filter_map(|j| probes.get(&j.req).map(|p| j.exec_ns as f64 / p.frame_ns))
                    .collect(),
            )),
        );
        let queue = sorted(ok_jobs().map(|j| j.queue_ns as f64 / 1e6).collect());
        m.set("tenant.queue_ms.p50", median(&queue));
        m.set("tenant.queue_ms.tail", quantile(&queue, plan.tail_q));
        m.set("tenant.rejects", count(End::Rejected) as f64);
        m.set(
            "api.encode_us",
            median(&sorted(
                whole_ok.iter().map(|j| st(j, 0, 1) / 1e3).collect(),
            )),
        );
        m.set(
            "api.decode_us",
            median(&sorted(
                whole_ok.iter().map(|j| st(j, 3, 4) / 1e3).collect(),
            )),
        );
        m.set(
            "wire.write_ms",
            median(&sorted(
                whole_ok.iter().map(|j| st(j, 1, 2) / 1e6).collect(),
            )),
        );
        m.set(
            "wire.bytes_per_job",
            median(&sorted(whole_ok.iter().map(|j| j.bytes as f64).collect())),
        );
        // Reactor overhead: write start to reply, minus the daemon's own
        // queue and execution times. Negative values are counted.
        let mut over = Vec::new();
        let mut share = Vec::new();
        for j in &whole_ok {
            let wire_ns = st(j, 1, 3);
            match residual(
                "reactor overhead",
                wire_ns,
                &[j.queue_ns as f64, j.exec_ns as f64],
            ) {
                Ok(o) => {
                    over.push(o / 1e6);
                    share.push(o / st(j, 0, 4));
                }
                Err(e) => {
                    negative += 1;
                    over.push(e.value / 1e6);
                }
            }
        }
        let over = sorted(over);
        m.set("reactor.overhead_ms.p50", median(&over));
        m.set("reactor.overhead_ms.tail", quantile(&over, plan.tail_q));
        m.set("reactor.overhead_share", median(&sorted(share)));
        if let (Some(a), Some(b)) = (&before, &after) {
            let d = |n: &str| {
                let c = |m: &BTreeMap<String, u64>| m.get(n).copied().unwrap_or(0) as f64;
                c(b) - c(a)
            };
            let served = d("serve_jobs_total").max(1.0);
            m.set(
                "reactor.wakeups_per_job",
                d("serve_reactor_wakeups") / served,
            );
            m.set(
                "reactor.batched_share",
                d("serve_reactor_batched_jobs") / served,
            );
        }
        let streamed: Vec<&JobRec> = ok_jobs().filter(|j| j.streamed).collect();
        if !streamed.is_empty() {
            m.set("stream.ack_rtt_ms", median(&sorted(rtts)));
            m.set(
                "stream.chunks_per_job",
                streamed.iter().map(|j| j.chunks as f64).sum::<f64>() / streamed.len() as f64,
            );
        }
        m.set("pool.busy_share", *busy.last().expect("phases"));
        m.set("pool.busy_share_nominal", busy[0]);
        m.set("gen.late_ms.p50", median(&late));
        m.set("gen.late_ms.tail", late_tail);
        m.set("gen.valid", if valid { 1.0 } else { 0.0 });
        m.set("ops.attempted", out.attempted as f64);
        m.set("ops.ok", ok as f64);
        m.set("ops.rejected", count(End::Rejected) as f64);
        m.set(
            "ops.failed",
            (count(End::Failed) + count(End::Mismatch)) as f64,
        );
        m.set("ops.transport", count(End::Transport) as f64);
        m.set("ops.unsent", unsent as f64);
        m.set(
            "ops.error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        // Traced against plain jobs of the nominal phase, service time.
        let svc = |traced: bool| {
            median(&sorted(
                whole_ok
                    .iter()
                    .filter(|j| j.phase == 0 && j.traced == traced)
                    .map(|j| st(j, 0, 4))
                    .collect(),
            ))
        };
        m.set(
            "trace_overhead_pct",
            100.0 * (svc(true) / svc(false).max(1.0) - 1.0),
        );
        let local_negative = m.get("layer.negative_residuals").unwrap_or(0.0);
        m.set("layer.negative_residuals", local_negative + negative as f64);
    }
    out.metrics = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_split_as_documented() {
        for w in [Workload::ServeCamera, Workload::ServeSmall] {
            let p = plan(w);
            let a = schedule(w, &p, 5, 2.0, 8);
            assert_eq!(a, schedule(w, &p, 5, 2.0, 8));
            assert_ne!(a, schedule(w, &p, 6, 2.0, 8));
            assert_eq!(a.len(), CONNS);
            for conn in &a {
                assert!(conn.windows(2).all(|x| x[0].due <= x[1].due));
                assert!(conn.iter().all(|s| s.req < 8 && s.phase < p.rates.len()));
            }
        }
        let p = plan(Workload::ServeCamera);
        let cam = schedule(Workload::ServeCamera, &p, 1, 10.0, 8);
        assert!(cam[0].iter().all(|s| !s.streamed) && cam[1].iter().all(|s| s.streamed));
        // 8 jobs/s for the 6 s nominal phase, split over two connections.
        let nominal = cam.iter().flatten().filter(|s| s.phase == 0).count();
        assert_eq!(nominal, 48);
        // At the benchmark's 50 s, the fixed tail percentile is the one
        // the ≥ 10-beyond rule gives for each kind's nominal sample.
        let cam = schedule(Workload::ServeCamera, &p, 1, 50.0, 8);
        let whole = cam[0].iter().filter(|s| s.phase == 0).count();
        assert_eq!(whole, 120);
        assert_eq!(supported_tail(whole), Some(p.tail_q));
    }

    fn rec(phase: usize, due_ms: u64, done_ms: Option<u64>, end: End) -> JobRec {
        JobRec {
            phase,
            streamed: false,
            traced: false,
            req: 0,
            due: due_ms * 1_000_000,
            done: done_ms.map(|d| d * 1_000_000),
            end,
            late: None,
            stamps: Stamps::default(),
            exec_ns: 0,
            queue_ns: 0,
            bytes: 0,
            chunks: 0,
            saving: 0.0,
        }
    }

    #[test]
    fn saturated_completion_rate_is_the_service_rate() {
        // Offered every 50 ms, served one per 100 ms: the completion rate
        // is the 10 jobs/s the server sustains, not the 20 offered.
        let jobs: Vec<JobRec> = (0..40)
            .map(|i| rec(1, i * 50, Some((i + 1) * 100), End::Ok))
            .collect();
        let rate = completion_rate(jobs.iter());
        assert!((rate - 10.0).abs() < 0.01, "{rate}");
        // Failed and unsent jobs take time but complete nothing.
        let mut mixed = jobs.clone();
        mixed[39].end = End::Failed;
        mixed.push(rec(1, 2000, None, End::Unsent));
        assert!(completion_rate(mixed.iter()) < rate);
    }

    #[test]
    fn request_pools_are_seeded() {
        let digests = |seed| -> Vec<u64> {
            prepare(Workload::ServeSmall, seed)
                .iter()
                .map(|(r, _)| sw_core::image_digest(&r.frame.image()))
                .collect()
        };
        assert_eq!(digests(1), digests(1));
        assert_ne!(digests(1), digests(2));
    }
}
