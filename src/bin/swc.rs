//! `swc` — sliding-window compression analyzer CLI.
//!
//! Answers the practical question a hardware designer brings to this work:
//! *"for my images, window size and threshold, how many BRAMs does the
//! modified architecture need, and what does lossy mode cost in quality?"*
//!
//! ```text
//! swc analyze  <image.pgm> --window 16 [--threshold 4] [--policy all]
//!              [--codec haar] [--metrics-out m.json] [--trace t.jsonl] [--jobs N]
//! swc plan     <image.pgm> --window 16 [--threshold 4]
//! swc sweep    <image.pgm> --window 16 [--codec haar] [--metrics-out m.json] [--jobs N]
//! swc scene    <name|index> <out.pgm> [--size 512x512]   # dataset export
//! ```
//!
//! `--metrics-out` writes the run's full telemetry report (per-stage cycle
//! counts, FIFO occupancy histograms and high-water marks, packer byte
//! counters, the NBits width distribution) as machine-readable JSON;
//! `--trace` writes the cycle-domain event trace as JSON lines.
//!
//! `--jobs N` runs the analyzer and the datapath strip-parallel on an
//! N-thread pool. The strip decomposition is fixed (8 strips), so every
//! number printed is identical for any `N` — see `tests/determinism.rs`.

use modified_sliding_window::bench::perf;
use modified_sliding_window::core::analysis::{analyze_frame, analyze_frame_par};
use modified_sliding_window::core::faults::FaultInjector;
use modified_sliding_window::core::kernels::Tap;
use modified_sliding_window::core::memory_unit::{MemoryUnitConfig, OverflowPolicy};
use modified_sliding_window::core::shard::{ShardedFrameRunner, DEFAULT_STRIPS};
use modified_sliding_window::image::pgm::{read_pgm, write_pgm};
use modified_sliding_window::prelude::*;
use modified_sliding_window::telemetry::TelemetryHandle;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  swc analyze <image.pgm> --window N [--threshold T] [--policy details|all]
              [--codec C] [--metrics-out FILE.json] [--trace FILE.jsonl]
              [--trace-chrome FILE.json] [--flame] [--jobs N]
              [--overflow-policy fail|stall|degrade] [--budget-fraction F]
              [--fault-seed N]
  swc plan    <image.pgm> --window N [--threshold T]
  swc sweep   <image.pgm> --window N [--codec C] [--metrics-out FILE.json] [--jobs N]
              [--overflow-policy fail|stall|degrade] [--budget-fraction F]
              [--fault-seed N]
  swc scene   <name|index> <out.pgm> [--size WxH]
  swc conform [--all] [--bless] [--fuzz N] [--seed S] [--vectors DIR]
  swc bench   [--json] [--quick] [--out FILE] [--jobs N]
  swc bench   --compare BASE.json NEW.json [--max-loss PCT] [--warn-only]
  swc serve   --listen tcp:HOST:PORT|unix:PATH [--jobs N]
              [--tenant-budget-mbits M] [--tenant-policy fail|stall|degrade]
              [--max-threshold T]
  swc client  <image.pgm> --connect tcp:HOST:PORT|unix:PATH --window N
              [job flags] [--tenant NAME] [--out FILE.pgm]
              [--stream [--chunk-rows N]]
  swc client  --connect ADDR --ping | --metrics | --shutdown
  swc load    <image.pgm> --connect ADDR --window N [job flags]
              [--tenant NAME] [--requests N] [--concurrency K] [--verify]
              [--stream [--chunk-rows N]]

The image must be a binary PGM (P5). `swc scene` writes one of the built-in
synthetic dataset scenes instead of reading an input.

--codec selects the line-buffer codec: raw, haar (default, the paper's
architecture), haar2 (two-level Haar), legall (LeGall 5/3), or locoi
(LOCO-I predictive). Non-haar codecs report the measured datapath
statistics instead of the Haar column analyzer.

--metrics-out runs the full datapath with telemetry enabled and writes the
metrics report (stage cycles, FIFO occupancy, packer counters, NBits
distribution) as JSON; --trace writes the cycle-domain event trace as JSON
lines; --trace-chrome writes the same trace as Chrome trace_event JSON
(open in chrome://tracing or Perfetto); --flame prints the hierarchical
span profile as a flame-style self-time table.

--jobs N processes the frame as 8 row strips (with window-height halos) on
an N-thread work-stealing pool; output is byte-identical for any N.

--overflow-policy runs the datapath through a capacity-enforced memory
unit provisioned from the planner's structured BRAM budget (scaled by
--budget-fraction, default 1.0): 'fail' exits with a typed overflow
error, 'stall' charges backpressure cycles, 'degrade' escalates the
threshold T until the stream fits. --fault-seed N injects deterministic
seeded faults (payload/BitMap/NBits bit-flips); detected corruption
exits with a decode error, undetected corruption is reported as
reconstruction MSE.

swc conform runs the conformance harness: --all checks the checked-in
golden vectors and runs the differential oracle battery over the whole
corpus grid plus any shrunk fuzz reproducers (the battery diffs the
bit-sliced codecs against their scalar reference on every case); --bless regenerates the
golden vectors after an intentional format change; --fuzz N runs an
N-case coverage-guided campaign from --seed S (default 1), shrinking any
failure into vectors/regressions/. --vectors DIR overrides the corpus
directory (default: the crate's checked-in vectors/).

swc serve starts the long-running daemon: a length-prefixed binary
protocol over TCP or a Unix socket, jobs multiplexed onto one shared
work-stealing pool, per-tenant admission budgets (--tenant-budget-mbits,
default 64 Mbit of in-flight frame data) governed by --tenant-policy:
'fail' rejects with a typed error, 'stall' applies backpressure, 'degrade'
escalates the job threshold under load (up to --max-threshold, default
16). 'swc client --metrics' returns Prometheus text from the daemon's
telemetry registry including the serve.* family.

swc client submits one frame-processing job (the same job flags as
analyze: --window/--threshold/--policy/--codec/--kernel/--jobs/
--overflow-policy/--budget-fraction) and prints the typed
response; --out writes the processed frame back as PGM. --stream submits
the job in the protocol-v2 row-streaming mode: a StreamOpen header, the
frame pipelined as RowChunk frames of --chunk-rows rows (default 8)
under an 8-chunk ack window, and a terminal JobDone carrying the same
response a whole-frame submission produces (byte-identical digests).
swc load is the saturation harness behind experiments E28/E29: it
drives --requests jobs over --concurrency connections (whole-frame, or
row-streamed with --stream) and reports throughput, latency p50/p99,
and reject/degrade counts; --verify re-executes each distinct effective
threshold locally and checks the served digests byte-for-byte.

swc bench runs the kernel x codec performance matrix (sequential and
halo-sharded on --jobs threads) and prints a throughput table. --json
writes the machine-readable trajectory (schema swc-bench-v1) to --out
FILE, default BENCH_<date>.json; --quick uses a reduced frame for CI
smoke runs. Each cell's breakdown comes from the fastest of 3 profiled
frames; a full run exits non-zero when the median profiled/p50 ratio
over sequential cells exceeds 1.10 (--quick prints it without gating).
'swc bench --compare BASE.json NEW.json' diffs two
trajectories and exits non-zero when any cell's throughput drops more
than --max-loss PCT (default 10) — --warn-only reports the same diff but
always exits 0.";

/// Parsed CLI options: the job-shaped flags live in the shared
/// [`JobSpecBuilder`] (the same parser the daemon, client, and load
/// generator use), the CLI-only knobs (telemetry outputs, scene size,
/// fault injection) stay here.
struct Opts {
    spec: JobSpecBuilder,
    size: (usize, usize),
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_chrome_out: Option<PathBuf>,
    flame: bool,
    fault_seed: Option<u64>,
}

impl Opts {
    fn window(&self) -> usize {
        self.spec.window().unwrap_or(0)
    }

    fn threshold(&self) -> i16 {
        self.spec.threshold()
    }

    fn codec(&self) -> LineCodecKind {
        self.spec.codec()
    }

    fn jobs(&self) -> Option<usize> {
        self.spec.jobs()
    }

    fn overflow_policy(&self) -> Option<OverflowPolicy> {
        self.spec.overflow_policy()
    }

    /// Whether any telemetry output was requested.
    fn wants_telemetry(&self) -> bool {
        self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.trace_chrome_out.is_some()
            || self.flame
    }

    /// Whether a memory-unit policy or fault run was requested (either
    /// forces the real datapath to run).
    fn wants_runtime(&self) -> bool {
        self.spec.overflow_policy().is_some() || self.fault_seed.is_some()
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        spec: JobSpecBuilder::new(),
        size: (512, 512),
        metrics_out: None,
        trace_out: None,
        trace_chrome_out: None,
        flame: false,
        fault_seed: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        match flag.as_str() {
            "--size" => {
                let v = next(args, &mut i)?;
                let (w, h) = v
                    .split_once('x')
                    .ok_or_else(|| format!("bad --size '{v}', expected WxH"))?;
                o.size = (
                    w.parse().map_err(|_| "bad width")?,
                    h.parse().map_err(|_| "bad height")?,
                );
            }
            "--metrics-out" => {
                o.metrics_out = Some(PathBuf::from(next(args, &mut i)?));
            }
            "--trace" => {
                o.trace_out = Some(PathBuf::from(next(args, &mut i)?));
            }
            "--trace-chrome" => {
                o.trace_chrome_out = Some(PathBuf::from(next(args, &mut i)?));
            }
            "--flame" => o.flame = true,
            "--fault-seed" => {
                o.fault_seed = Some(
                    next(args, &mut i)?
                        .parse()
                        .map_err(|_| "bad --fault-seed")?,
                );
            }
            _ if JobSpecBuilder::is_job_flag(&flag) => {
                let v = next(args, &mut i)?;
                o.spec
                    .try_flag(&flag, v)
                    .expect("is_job_flag gated this dispatch")?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    Ok(o)
}

fn next<'a>(args: &'a [String], i: &mut usize) -> Result<&'a String, String> {
    *i += 1;
    args.get(*i).ok_or_else(|| "missing option value".into())
}

fn load(path: &str) -> Result<ImageU8, String> {
    read_pgm(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "analyze" => {
            let path = args.get(1).ok_or("missing image path")?;
            let o = parse_opts(&args[2..])?;
            require_window(&o)?;
            analyze(&load(path)?, &o)
        }
        "plan" => {
            let path = args.get(1).ok_or("missing image path")?;
            let o = parse_opts(&args[2..])?;
            require_window(&o)?;
            reject_telemetry(&o, "plan")?;
            reject_jobs(&o, "plan")?;
            reject_runtime(&o, "plan")?;
            plan_cmd(&load(path)?, &o)
        }
        "sweep" => {
            let path = args.get(1).ok_or("missing image path")?;
            let o = parse_opts(&args[2..])?;
            require_window(&o)?;
            sweep(&load(path)?, &o)
        }
        "scene" => {
            let which = args.get(1).ok_or("missing scene name or index")?;
            let out = args.get(2).ok_or("missing output path")?;
            let o = parse_opts(&args[3..])?;
            reject_telemetry(&o, "scene")?;
            reject_jobs(&o, "scene")?;
            reject_runtime(&o, "scene")?;
            scene(which, out, &o)
        }
        "conform" => conform(&args[1..]),
        "bench" => bench(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "client" => client_cmd(&args[1..]),
        "load" => load_cmd(&args[1..]),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// `swc conform`: golden-vector corpus check, differential oracles, and
/// coverage-guided fuzzing. Uses its own small flag set — the shared
/// `Opts` knobs do not apply to corpus runs.
fn conform(args: &[String]) -> Result<(), String> {
    let mut all = false;
    let mut bless = false;
    let mut fuzz_n: Option<usize> = None;
    let mut seed: u64 = 1;
    let mut vectors = sw_conformance::default_vectors_dir();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--bless" => bless = true,
            "--fuzz" => {
                fuzz_n = Some(next(args, &mut i)?.parse().map_err(|_| "bad --fuzz")?);
            }
            "--seed" => {
                seed = next(args, &mut i)?.parse().map_err(|_| "bad --seed")?;
            }
            "--vectors" => {
                vectors = PathBuf::from(next(args, &mut i)?);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if !all && !bless && fuzz_n.is_none() {
        return Err("conform needs at least one of --all, --bless, --fuzz N".into());
    }
    if bless {
        let cells = sw_conformance::corpus::bless(&vectors).map_err(|e| e.to_string())?;
        println!("blessed {cells} golden cells into {}", vectors.display());
    }
    if all {
        let summary = sw_conformance::run_all(&vectors).map_err(|e| e.to_string())?;
        print!("{}", summary.render());
        if !summary.is_clean() {
            return Err("conformance run failed".into());
        }
    }
    if let Some(n) = fuzz_n {
        let report = sw_conformance::run_fuzz(n, seed, &vectors.join("regressions"));
        println!(
            "fuzz: {} cases from seed {seed}, {} failures",
            report.cases,
            report.failures.len()
        );
        println!("{}", report.coverage.summary());
        for f in &report.failures {
            println!("  FAIL {} (shrunk to {})", f.case_id, f.minimal_id);
            println!("       {}", f.verdict);
            if let Some(p) = &f.reproducer {
                println!("       reproducer: {}", p.display());
            }
        }
        if !report.failures.is_empty() {
            return Err("fuzz campaign found failures".into());
        }
    }
    Ok(())
}

/// `swc bench`: the kernel × codec performance matrix and the trajectory
/// regression gate. Uses its own flag set — see `sw_bench::perf`.
fn bench(args: &[String]) -> Result<(), String> {
    let mut json_out = false;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut compare_paths: Option<(PathBuf, PathBuf)> = None;
    let mut max_loss_pct = 10.0f64;
    let mut warn_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_out = true,
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(next(args, &mut i)?)),
            "--jobs" => jobs = Some(parse_jobs(next(args, &mut i)?)?),
            "--compare" => {
                let base = PathBuf::from(next(args, &mut i)?);
                let newer = PathBuf::from(next(args, &mut i)?);
                compare_paths = Some((base, newer));
            }
            "--max-loss" => {
                let v = next(args, &mut i)?;
                max_loss_pct = v.parse().map_err(|_| "bad --max-loss")?;
                if !(max_loss_pct >= 0.0 && max_loss_pct.is_finite()) {
                    return Err("--max-loss must be a non-negative percentage".into());
                }
            }
            "--warn-only" => warn_only = true,
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }

    if let Some((base_path, new_path)) = compare_paths {
        if json_out || quick || out.is_some() || jobs.is_some() {
            return Err("--compare takes only --max-loss and --warn-only".into());
        }
        let load = |p: &Path| -> Result<perf::BenchReport, String> {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            perf::BenchReport::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        let outcome = perf::compare(&load(&base_path)?, &load(&new_path)?, max_loss_pct)?;
        print!("{}", outcome.render());
        if outcome.is_regressed() && !warn_only {
            return Err("bench regression gate failed".into());
        }
        return Ok(());
    }
    if warn_only {
        return Err("--warn-only only applies to --compare".into());
    }

    let jobs = jobs.unwrap_or_else(default_jobs);
    let settings = if quick {
        perf::BenchSettings::quick(jobs)
    } else {
        perf::BenchSettings::full(jobs)
    };
    eprintln!(
        "bench: {} cells, {}x{} frame, {} timed frames/cell, {jobs} jobs{}",
        perf::matrix_cell_ids().len(),
        settings.width,
        settings.height,
        settings.frames,
        if quick { " (quick)" } else { "" }
    );
    let report = perf::run_matrix(&settings, &perf::utc_date_string())?;
    println!("cell                       Mpix/s      p50 ms      p99 ms    KB packed  prof/p50");
    for c in &report.cells {
        let prof = c
            .profiled_per_p50()
            .map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
        println!(
            "{:<22} {:>10.3} {:>11.3} {:>11.3} {:>12.1} {prof:>9}",
            c.cell,
            c.mpix_per_s,
            c.p50_ns as f64 / 1e6,
            c.p99_ns as f64 / 1e6,
            c.bytes_packed as f64 / 1024.0
        );
    }
    if json_out {
        let path =
            out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", report.created_utc)));
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote bench trajectory: {}", path.display());
    }
    // Probe distortion: a quick run's two small frames cannot resolve
    // 10 %, so only a full run gates on it.
    if let Some(r) = perf::probe_distortion(&report.cells) {
        println!(
            "probe distortion: median prof/p50 over seq cells {r:.3} (bound {:.2}{})",
            perf::MAX_PROBE_DISTORTION,
            if quick {
                ", not gated with --quick"
            } else {
                ""
            }
        );
        if !quick {
            perf::check_probe_distortion(&report.cells)?;
        }
    }
    Ok(())
}

fn reject_telemetry(o: &Opts, cmd: &str) -> Result<(), String> {
    if o.wants_telemetry() {
        return Err(format!(
            "--metrics-out/--trace are not supported by '{cmd}' (use analyze or sweep)"
        ));
    }
    Ok(())
}

fn reject_jobs(o: &Opts, cmd: &str) -> Result<(), String> {
    if o.jobs().is_some() {
        return Err(format!(
            "--jobs is not supported by '{cmd}' (use analyze or sweep)"
        ));
    }
    Ok(())
}

fn reject_runtime(o: &Opts, cmd: &str) -> Result<(), String> {
    if o.wants_runtime() {
        return Err(format!(
            "--overflow-policy/--fault-seed are not supported by '{cmd}' (use analyze or sweep)"
        ));
    }
    Ok(())
}

/// What the datapath runs of one `analyze`/`sweep` invocation share:
/// telemetry, the memory unit, the fault injector, and the pool the Haar
/// analyzer's `--jobs` runs strip-parallel on.
struct Datapath<'a> {
    tele: TelemetryHandle,
    mu: Option<MemoryUnitConfig>,
    faults: Option<FaultInjector>,
    /// `Some`: run [`DEFAULT_STRIPS`] strips on it; `None`: one strip.
    pool: Option<&'a ThreadPool>,
}

impl<'a> Datapath<'a> {
    /// Provision the run for `img`: the planner's structured BRAM budget
    /// for `cfg` (measured losslessly), scaled by `--budget-fraction`.
    fn new(
        img: &ImageU8,
        o: &Opts,
        cfg: &ArchConfig,
        pool: Option<&'a ThreadPool>,
    ) -> Result<Self, String> {
        Ok(Self {
            tele: if o.wants_telemetry() {
                TelemetryHandle::new()
            } else {
                TelemetryHandle::disabled()
            },
            mu: o
                .spec
                .build()?
                .memory_unit(img, cfg)
                .map_err(|e| e.to_string())?,
            faults: o.fault_seed.map(FaultInjector::seeded),
            pool,
        })
    }

    /// Run `cfg`'s datapath once over `img` with the most-recirculated tap
    /// kernel, reporting telemetry under `name`.
    fn run(&self, img: &ImageU8, cfg: ArchConfig, name: &str) -> Result<ShardedOutput, String> {
        let mut runner = ShardedFrameRunner::new(cfg)
            .with_strips(if self.pool.is_some() {
                DEFAULT_STRIPS
            } else {
                1
            })
            .with_named_telemetry(&self.tele, name);
        if let Some(mu) = self.mu {
            runner = runner.with_memory_unit(mu);
        }
        if let Some(f) = self.faults.clone() {
            runner = runner.with_fault_injector(f);
        }
        runner
            .run(
                img,
                &Tap::top_left(cfg.window),
                self.pool.unwrap_or(&ThreadPool::new(1)),
            )
            .map_err(|e| e.to_string())
    }

    /// Print the memory-unit policy outcome of one run (policy runs only).
    fn print_policy_outcome(&self, o: &Opts, out: &ShardedOutput) {
        if let (Some(policy), Some(mu)) = (o.overflow_policy(), self.mu) {
            println!(
                "overflow policy '{}':  budget {} bits  stalls {}  T escalations {}  overflow events {}",
                policy.name(),
                mu.capacity_bits,
                out.stall_cycles,
                out.t_escalations,
                out.overflow_events
            );
        }
    }
}

/// MSE of a datapath output against the matching region of its input.
fn delivered_mse(img: &ImageU8, out: &ImageU8) -> f64 {
    mse(out, &img.crop(0, 0, out.width(), out.height()))
}

/// Print the delivered-quality line for a datapath output.
fn print_delivered_quality(img: &ImageU8, out: &ImageU8) {
    let crop = img.crop(0, 0, out.width(), out.height());
    println!(
        "delivered quality:    MSE {:.2}  PSNR {:.1} dB (compounded, worst window row)",
        mse(out, &crop),
        psnr(out, &crop)
    );
}

fn require_window(o: &Opts) -> Result<(), String> {
    if o.window() < 2 || !o.window().is_multiple_of(2) {
        return Err("--window must be an even integer >= 2".into());
    }
    Ok(())
}

fn config(img: &ImageU8, o: &Opts) -> Result<ArchConfig, String> {
    // One conversion point: the same spec -> ArchConfig mapping the daemon
    // applies to decoded job requests.
    o.spec
        .build()?
        .arch_config(img.width())
        .map_err(|e| e.to_string())
}

fn analyze(img: &ImageU8, o: &Opts) -> Result<(), String> {
    if o.codec() != LineCodecKind::Haar {
        return analyze_codec(img, o);
    }
    let cfg = config(img, o)?;
    let pool = o.jobs().map(ThreadPool::new);
    let a = match &pool {
        // Bit-identical to the sequential analyzer for any pool size.
        Some(p) => analyze_frame_par(img, &cfg, p).map_err(|e| e.to_string())?,
        None => analyze_frame(img, &cfg),
    };
    println!(
        "image {}x{}  window {}  threshold {}",
        img.width(),
        img.height(),
        o.window(),
        o.threshold()
    );
    println!("payload bits/pixel:   {:.3}", a.bits_per_pixel());
    let [ll, lh, hl, hh] = a.per_band_payload_bits;
    let total = a.payload_bits().max(1) as f64;
    println!(
        "band shares:          LL {:.0}%  LH {:.0}%  HL {:.0}%  HH {:.0}%",
        100.0 * ll as f64 / total,
        100.0 * lh as f64 / total,
        100.0 * hl as f64 / total,
        100.0 * hh as f64 / total,
    );
    println!("memory saving (Eq 5): {:.1}%", a.saving_pct());
    println!(
        "worst-case occupancy: {} bits payload + {} bits mgmt",
        a.worst_payload_occupancy,
        a.worst_total_occupancy() - a.worst_payload_occupancy
    );
    if o.threshold() > 0 || o.wants_telemetry() || o.wants_runtime() {
        // Run the actual datapath: for lossy quality numbers, for
        // telemetry, for a policy or fault run, or any combination.
        let dp = Datapath::new(img, o, &cfg, pool.as_ref())?;
        let out = dp.run(img, cfg, "compressed")?;
        dp.print_policy_outcome(o, &out);
        if o.threshold() > 0 || out.t_escalations > 0 || dp.faults.is_some() {
            print_delivered_quality(img, &out.image);
        }
        write_telemetry(&dp.tele, o)?;
    }
    Ok(())
}

/// `swc analyze` for a non-default codec: report the measured datapath
/// statistics (the Haar column analyzer does not apply), in the same layout
/// as the default path plus a `codec:` line.
fn analyze_codec(img: &ImageU8, o: &Opts) -> Result<(), String> {
    let cfg = config(img, o)?;
    println!(
        "image {}x{}  window {}  threshold {}  codec {}",
        img.width(),
        img.height(),
        o.window(),
        o.threshold(),
        o.codec().name()
    );
    let dp = Datapath::new(img, o, &cfg, None)?;
    let out = dp.run(img, cfg, "analyze")?;
    let s = out
        .frame_stats
        .expect("a one-strip run reports its frame stats");
    println!("memory saving (Eq 5): {:.1}%", s.memory_saving_pct());
    println!(
        "worst-case occupancy: {} bits payload + {} bits mgmt",
        s.peak_payload_occupancy, s.management_bits
    );
    dp.print_policy_outcome(o, &out);
    if (o.threshold() > 0 && o.codec().is_lossy_capable())
        || s.t_escalations > 0
        || dp.faults.is_some()
    {
        print_delivered_quality(img, &out.image);
    }
    write_telemetry(&dp.tele, o)
}

/// Write the requested telemetry outputs (metrics JSON, trace JSONL).
fn write_telemetry(tele: &TelemetryHandle, o: &Opts) -> Result<(), String> {
    if let Some(path) = &o.metrics_out {
        std::fs::write(path, tele.report().to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote metrics report: {}", path.display());
    }
    if let Some(path) = &o.trace_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let n = tele
            .write_trace_jsonl(&mut w)
            .and_then(|n| w.flush().map(|()| n))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        match tele.trace_dropped() {
            0 => println!("wrote trace: {} ({n} events)", path.display()),
            d => println!(
                "wrote trace: {} ({n} events, {d} older events dropped by the ring)",
                path.display()
            ),
        }
    }
    if let Some(path) = &o.trace_chrome_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let n = tele
            .write_chrome_trace(&mut w)
            .and_then(|n| w.flush().map(|()| n))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "wrote Chrome trace: {} ({n} records; open in chrome://tracing or Perfetto)",
            path.display()
        );
    }
    if o.flame {
        print!("{}", tele.flame_table());
    }
    Ok(())
}

fn plan_cmd(img: &ImageU8, o: &Opts) -> Result<(), String> {
    let cfg = config(img, o)?;
    let a = analyze_frame(img, &cfg);
    let p = plan(
        o.window(),
        img.width(),
        a.worst_payload_occupancy,
        MgmtAccounting::Structured,
    );
    let trad = traditional_brams(o.window(), img.width());
    println!("traditional:  {trad} BRAM18");
    println!(
        "compressed:   {} packed ({} rows/BRAM) + {} mgmt = {} BRAM18  ({:.0}% saved)",
        p.packed_brams,
        p.rows_per_bram,
        p.mgmt_brams(),
        p.total_brams(),
        p.total_saving_pct()
    );
    if !p.fits {
        println!("warning: payload exceeds every row mapping — this frame would overflow");
    }
    let logic = estimate(ModuleKind::Overall, o.window());
    match Device::smallest_fitting(logic.luts, logic.registers, p.total_brams()) {
        Some(d) => println!(
            "smallest device: {} ({} LUTs for the compression logic)",
            d.name, logic.luts
        ),
        None => println!("no catalog device fits the compression logic at this window size"),
    }
    Ok(())
}

fn sweep(img: &ImageU8, o: &Opts) -> Result<(), String> {
    let pool = o.jobs().map(ThreadPool::new);
    // Non-default codecs report the datapath's own frame stats, which only
    // a one-strip run has (they are strip-count independent anyway).
    let haar = o.codec() == LineCodecKind::Haar;
    let dp = Datapath::new(img, o, &config(img, o)?, pool.as_ref().filter(|_| haar))?;
    println!("T   saving%   worst payload bits   delivered MSE");
    for t in [0i16, 2, 4, 6, 8] {
        let cfg = config(img, o)?.with_threshold(t);
        // Each threshold reports as its own stage in the telemetry.
        let name = format!("t{t}");
        let (saving, worst, e, out) = if haar {
            let a = match &pool {
                Some(p) => analyze_frame_par(img, &cfg, p).map_err(|e| e.to_string())?,
                None => analyze_frame(img, &cfg),
            };
            let out = if t == 0 && !o.wants_telemetry() && !o.wants_runtime() {
                None
            } else {
                Some(dp.run(img, cfg, &name)?)
            };
            let e = out
                .as_ref()
                .map_or(0.0, |out| delivered_mse(img, &out.image));
            (a.saving_pct(), a.worst_payload_occupancy, e, out)
        } else {
            let out = dp.run(img, cfg, &name)?;
            let s = out
                .frame_stats
                .expect("a one-strip run reports its frame stats");
            let e = if (t > 0 && o.codec().is_lossy_capable())
                || s.t_escalations > 0
                || dp.faults.is_some()
            {
                delivered_mse(img, &out.image)
            } else {
                0.0
            };
            (
                s.memory_saving_pct(),
                s.peak_payload_occupancy,
                e,
                Some(out),
            )
        };
        println!("{t:<3} {saving:>7.1}   {worst:>18}   {e:>13.2}");
        if let Some(out) = &out {
            dp.print_policy_outcome(o, out);
        }
    }
    write_telemetry(&dp.tele, o)
}

fn scene(which: &str, out: &str, o: &Opts) -> Result<(), String> {
    let preset = ScenePreset::ALL
        .iter()
        .find(|p| p.name == which)
        .or_else(|| {
            which
                .parse::<usize>()
                .ok()
                .and_then(|i| ScenePreset::ALL.get(i))
        })
        .ok_or_else(|| {
            format!(
                "unknown scene '{which}' (names: {})",
                ScenePreset::ALL
                    .iter()
                    .map(|p| p.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    let img = preset.render(o.size.0, o.size.1);
    write_pgm(&img, &PathBuf::from(out)).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} ({}x{}, scene '{}')",
        out, o.size.0, o.size.1, preset.name
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Serving subcommands. These all speak the same typed job API: the daemon
// decodes `JobRequest`s off the socket, the client and load generator
// build them through the identical `JobSpecBuilder` the analyze/sweep
// paths use.

/// `swc serve`: run the daemon until a client sends a Shutdown frame.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut listen: Option<Listen> = None;
    let mut jobs: usize = 0;
    let mut budget_mbits: u64 = 64;
    let mut tenant_policy = OverflowPolicy::Fail;
    let mut max_threshold: i16 = 16;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => listen = Some(Listen::parse(next(args, &mut i)?)?),
            "--jobs" => jobs = parse_jobs(next(args, &mut i)?)?,
            "--tenant-budget-mbits" => {
                budget_mbits = next(args, &mut i)?
                    .parse()
                    .map_err(|_| "bad --tenant-budget-mbits")?;
                if budget_mbits == 0 {
                    return Err("--tenant-budget-mbits must be at least 1".into());
                }
            }
            "--tenant-policy" => {
                let v = next(args, &mut i)?;
                tenant_policy = OverflowPolicy::parse(v).ok_or_else(|| {
                    format!("unknown overflow policy '{v}' (fail, stall, degrade)")
                })?;
            }
            "--max-threshold" => {
                max_threshold = next(args, &mut i)?
                    .parse()
                    .map_err(|_| "bad --max-threshold")?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    let listen = listen.ok_or("serve needs --listen tcp:HOST:PORT or unix:PATH")?;
    let mut policy = TenantPolicy::new(budget_mbits * 1_000_000, tenant_policy);
    policy.budget.max_threshold = max_threshold;
    let mut daemon = Daemon::start(DaemonConfig {
        listen: listen.clone(),
        jobs,
        tenant_policy: policy,
    })
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    match (daemon.local_addr(), &listen) {
        (Some(addr), _) => println!("swcd listening on tcp:{addr}"),
        (None, Listen::Unix(path)) => println!("swcd listening on unix:{}", path.display()),
        (None, Listen::Tcp(a)) => println!("swcd listening on tcp:{a}"),
    }
    println!(
        "tenant budget {budget_mbits} Mbit, policy '{}', shutdown via `swc client --connect ... --shutdown`",
        tenant_policy.name()
    );
    daemon.wait();
    println!("swcd drained cleanly");
    Ok(())
}

/// Shared by `swc client` and `swc load`: positional image path, --connect,
/// --tenant, and the job flags routed through the one shared builder.
struct NetJobArgs {
    connect: Listen,
    request: JobRequest,
}

fn parse_net_job(
    args: &[String],
    mut extra: impl FnMut(&str, &[String], &mut usize) -> Result<bool, String>,
) -> Result<NetJobArgs, String> {
    let mut connect: Option<Listen> = None;
    let mut tenant = "cli".to_string();
    let mut spec = JobSpecBuilder::new();
    let mut image_path: Option<String> = None;
    let mut want_frame = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        match flag.as_str() {
            "--connect" => connect = Some(Listen::parse(next(args, &mut i)?)?),
            "--tenant" => tenant = next(args, &mut i)?.clone(),
            _ if JobSpecBuilder::is_job_flag(&flag) => {
                let v = next(args, &mut i)?;
                spec.try_flag(&flag, v)
                    .expect("is_job_flag gated this dispatch")?;
            }
            _ if extra(&flag, args, &mut i)? => {
                if flag == "--out" {
                    want_frame = true;
                }
            }
            other if !other.starts_with("--") && image_path.is_none() => {
                image_path = Some(other.to_string());
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    let connect = connect.ok_or("needs --connect tcp:HOST:PORT or unix:PATH")?;
    let path = image_path.ok_or("missing image path")?;
    let img = load(&path)?;
    let spec = spec.build()?;
    Ok(NetJobArgs {
        connect,
        request: JobRequest {
            tenant,
            spec,
            frame: modified_sliding_window::serve::api::FramePayload::from_image(&img),
            want_frame,
        },
    })
}

/// `swc client`: one-shot job submission, or --ping/--metrics/--shutdown.
fn client_cmd(args: &[String]) -> Result<(), String> {
    // Control-plane mode: no image, exactly one action flag.
    let actions = ["--ping", "--metrics", "--shutdown"];
    if let Some(action) = args.iter().find(|a| actions.contains(&a.as_str())) {
        let mut connect: Option<Listen> = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--connect" => connect = Some(Listen::parse(next(args, &mut i)?)?),
                a if actions.contains(&a) => {}
                other => return Err(format!("unknown option '{other}'")),
            }
            i += 1;
        }
        let connect = connect.ok_or("needs --connect tcp:HOST:PORT or unix:PATH")?;
        let mut client = Client::connect(&connect).map_err(|e| format!("cannot connect: {e}"))?;
        match action.as_str() {
            "--ping" => {
                let echoed = client.ping(b"swc").map_err(|e| e.to_string())?;
                if echoed != b"swc" {
                    return Err("ping reply did not echo the payload".into());
                }
                println!("pong");
            }
            "--metrics" => {
                print!("{}", client.metrics().map_err(|e| e.to_string())?);
            }
            _ => {
                client.shutdown().map_err(|e| e.to_string())?;
                println!("daemon acknowledged shutdown");
            }
        }
        return Ok(());
    }

    let mut out_path: Option<PathBuf> = None;
    let mut stream = false;
    let mut chunk_rows: u32 = 8;
    let net = parse_net_job(args, |flag, args, i| match flag {
        "--out" => {
            out_path = Some(PathBuf::from(next(args, i)?));
            Ok(true)
        }
        "--stream" => {
            stream = true;
            Ok(true)
        }
        "--chunk-rows" => {
            chunk_rows = next(args, i)?.parse().map_err(|_| "bad --chunk-rows")?;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    if chunk_rows == 0 {
        return Err("--chunk-rows must be at least 1".into());
    }
    let mut client = Client::connect(&net.connect).map_err(|e| format!("cannot connect: {e}"))?;
    let resp = if stream {
        client.submit_streamed(&net.request, chunk_rows)
    } else {
        client.submit(&net.request)
    }
    .map_err(|e| e.to_string())?;
    println!(
        "job ok: output {}x{}  digest {:016x}{}",
        resp.out_width,
        resp.out_height,
        resp.digest,
        if stream {
            format!("  (streamed, {chunk_rows} rows/chunk)")
        } else {
            String::new()
        }
    );
    println!(
        "threshold {} ({})  escalations {}  stalls {}  overflows {}",
        resp.effective_threshold,
        if resp.degraded {
            "degraded by admission"
        } else {
            "as requested"
        },
        resp.t_escalations,
        resp.stall_cycles,
        resp.overflow_events
    );
    println!(
        "memory saving {:.1}%  mse {:.2}  queue {:.3} ms  exec {:.3} ms",
        resp.memory_saving_pct,
        resp.mse,
        resp.queue_ns as f64 / 1e6,
        resp.exec_ns as f64 / 1e6
    );
    if let (Some(path), Some(frame)) = (out_path, &resp.frame) {
        write_pgm(&frame.image(), &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote processed frame: {}", path.display());
    }
    Ok(())
}

/// `swc load`: the saturation load generator (experiment E28).
fn load_cmd(args: &[String]) -> Result<(), String> {
    let mut requests: u64 = 64;
    let mut concurrency: usize = 4;
    let mut verify = false;
    let mut stream = false;
    let mut chunk_rows: u32 = 8;
    let net = parse_net_job(args, |flag, args, i| match flag {
        "--requests" => {
            requests = next(args, i)?.parse().map_err(|_| "bad --requests")?;
            Ok(true)
        }
        "--concurrency" => {
            concurrency = next(args, i)?.parse().map_err(|_| "bad --concurrency")?;
            Ok(true)
        }
        "--verify" => {
            verify = true;
            Ok(true)
        }
        "--stream" => {
            stream = true;
            Ok(true)
        }
        "--chunk-rows" => {
            chunk_rows = next(args, i)?.parse().map_err(|_| "bad --chunk-rows")?;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    if requests == 0 {
        return Err("--requests must be at least 1".into());
    }
    if concurrency == 0 {
        return Err("--concurrency must be at least 1".into());
    }
    if chunk_rows == 0 {
        return Err("--chunk-rows must be at least 1".into());
    }
    let report = modified_sliding_window::serve::client::load_run(
        &net.connect,
        &net.request,
        &modified_sliding_window::serve::client::LoadConfig {
            concurrency,
            requests,
            stream_chunk_rows: stream.then_some(chunk_rows),
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "load: {} ok, {} rejected, {} failed, {} transport errors, {} degraded",
        report.ok, report.rejected, report.failed, report.transport_errors, report.degraded
    );
    println!(
        "throughput {:.1} jobs/s  latency p50 {:.3} ms  p99 {:.3} ms",
        report.throughput(),
        report.percentile_ns(0.50) as f64 / 1e6,
        report.percentile_ns(0.99) as f64 / 1e6
    );
    if verify {
        let pool = ThreadPool::new(net.request.spec.jobs.max(1));
        let tele = TelemetryHandle::disabled();
        let distinct = report.distinct_digests();
        for &(t, digest) in &distinct {
            let mut local = net.request.clone();
            local.spec.threshold = t;
            // Admission escalated this job; reproduce it without the
            // daemon's memory-unit budget weighing in a second time.
            let local_resp = modified_sliding_window::serve::exec::execute(&local, &pool, &tele)
                .map_err(|e| format!("local verify run failed at T={t}: {e}"))?;
            if local_resp.digest != digest {
                return Err(format!(
                    "digest mismatch at T={t}: served {digest:016x}, local {:016x}",
                    local_resp.digest
                ));
            }
        }
        println!(
            "verify: {} distinct digest(s) match local execution byte-for-byte",
            distinct.len()
        );
    }
    Ok(())
}
