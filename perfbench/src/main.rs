//! Socket-to-pixel benchmark for the modified sliding-window
//! architecture: the in-process datapath and the `swc serve` daemon.
//!
//! ```text
//! perfbench --workload datapath|serve-camera|serve-small --seed N
//!           --seconds S --trace 0|1 [--swc PATH]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric, and writes a Chrome trace and a self-time
//! table under [`OUT_DIR`]. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any digest mismatch
//! makes the exit code 1. See `perfbench/README.md`.

mod datapath;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use trace::Trace;

/// End-to-end metrics, name and unit; `BENCHMARK.json` lists the same.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("stream_p50_ms", "ms"),
    ("stream_tail_ms", "ms"),
    ("mpix_s", "Mpix/s"),
    ("max_ok_jobs_s", "jobs/s"),
    ("success_ratio", "ratio"),
    ("bram_used_pct", "%"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("arch.frame_ms.box_haar_t0", "ms"),
    ("arch.frame_ms.gaussian_haar_t4", "ms"),
    ("arch.frame_ms.sobel_raw", "ms"),
    ("arch.build_us", "us"),
    ("arch.glue_share", "ratio"),
    ("window.shift_ns_per_px", "ns"),
    ("kernels.apply_ns_per_px.box", "ns"),
    ("kernels.apply_ns_per_px.gaussian", "ns"),
    ("kernels.apply_ns_per_px.sobel", "ns"),
    ("codec.encode_ns_per_group", "ns"),
    ("codec.decode_ns_per_group", "ns"),
    ("codec.groups_per_frame", "count"),
    ("codec.payload_bits_per_px", "bit"),
    ("exec.exec_ms.p50", "ms"),
    ("exec.exec_ms.tail", "ms"),
    ("exec.vs_local_ratio", "ratio"),
    ("exec.local_enabled_ratio", "ratio"),
    ("tenant.queue_ms.p50", "ms"),
    ("tenant.queue_ms.tail", "ms"),
    ("tenant.rejects", "count"),
    ("api.encode_us", "us"),
    ("api.decode_us", "us"),
    ("wire.write_ms", "ms"),
    ("wire.bytes_per_job", "B"),
    ("reactor.overhead_ms.p50", "ms"),
    ("reactor.overhead_ms.tail", "ms"),
    ("reactor.overhead_share", "ratio"),
    ("reactor.wakeups_per_job", "count"),
    ("reactor.batched_share", "ratio"),
    ("stream.ack_rtt_ms", "ms"),
    ("stream.chunks_per_job", "count"),
    ("pool.busy_share", "ratio"),
    ("pool.busy_share_nominal", "ratio"),
    ("gen.late_ms.p50", "ms"),
    ("gen.late_ms.tail", "ms"),
    ("gen.valid", "bool"),
    ("ops.attempted", "count"),
    ("ops.ok", "count"),
    ("ops.rejected", "count"),
    ("ops.failed", "count"),
    ("ops.transport", "count"),
    ("ops.unsent", "count"),
    ("ops.error_rate", "ratio"),
    ("trace_overhead_pct", "%"),
    ("layer.negative_residuals", "count"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process datapath, one thread, closed loop.
    Datapath,
    /// Two connections at a camera's constant frame interval.
    ServeCamera,
    /// Two connections of tiny Poisson-arriving jobs.
    ServeSmall,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "datapath" => Some(Workload::Datapath),
            "serve-camera" => Some(Workload::ServeCamera),
            "serve-small" => Some(Workload::ServeSmall),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Datapath => "datapath",
            Workload::ServeCamera => "serve-camera",
            Workload::ServeSmall => "serve-small",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `swc` release binary the served workloads spawn.
    pub swc: PathBuf,
}

/// Where sockets, daemon logs and traces go, relative to the repository
/// root the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut swc = PathBuf::from(".bench_build/release/swc");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                })
            }
            "--swc" => swc = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        swc,
    })
}

/// Named metric values of one run; units come from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name` (which must be in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, value);
    }

    /// A value recorded earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that did not succeed with a correct output.
    pub failed: u64,
    /// Outputs whose digest or bytes differed from the local reference.
    pub mismatches: u64,
    /// Measured values.
    pub metrics: Metrics,
    /// Spans of a traced run.
    pub trace: Trace,
    /// Header facts the workload adds (daemon jobs, validity, ...).
    pub header: Vec<(&'static str, String)>,
}

/// The share of the raw line-buffer span a codec still occupies:
/// `100 − ` the mean Eq-5 saving of the given outputs. Unlike the saving
/// it stays positive on frames so small that management bits outweigh
/// the compression.
pub fn bram_used_pct(savings: &[f64]) -> f64 {
    100.0 - savings.iter().sum::<f64>() / savings.len().max(1) as f64
}

/// Peak resident set (`VmHWM`) of process `pid` (`self` for this one),
/// MiB.
pub fn vm_hwm_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM"))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run header: what a result needs to be compared fairly.
fn header(args: &Args, extra: &[(&'static str, String)]) -> String {
    let nproc = command_line("nproc", &[]);
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", json_str(&nproc)),
        ("available_parallelism", par.to_string()),
        (
            "git_rev",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let outcome = match args.workload {
        Workload::Datapath => datapath::run(&args),
        Workload::ServeCamera | Workload::ServeSmall => serve::run(&args),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    let head = header(&args, &outcome.header);
    println!("header {head}");

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        // Layers this workload does not exercise read 0.
        for (name, _) in PER_LAYER {
            outcome.metrics.0.entry(name).or_insert(0.0);
        }
        let stem = format!("{}-{}", args.workload.name(), args.seed);
        let table = outcome.trace.self_time_table();
        eprint!(
            "self time by layer ({} spans):\n{table}",
            outcome.trace.spans().len()
        );
        let writes = [
            (
                out_dir.join(format!("trace-{stem}.json")),
                outcome.trace.chrome_json(&head, 200_000),
            ),
            (
                out_dir.join(format!("selftime-{stem}.txt")),
                format!("{head}\n{table}"),
            ),
        ];
        for (path, body) in writes {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let mut json = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let Some(&v) = outcome.metrics.0.get(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::from(2);
        };
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({v})");
            return ExitCode::from(2);
        }
        println!("metric {name} {v} {unit}");
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        );
    }
    let correct = outcome.mismatches == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} outputs differed from their references",
            outcome.mismatches
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let metrics = text.matches("\"unit\":").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
        let workloads = text.matches("\"why\":").count();
        let known = ["datapath", "serve-camera", "serve-small"]
            .iter()
            .filter(|w| text.contains(&format!("\"name\": \"{w}\", \"why\"")))
            .count();
        assert_eq!(workloads, known, "BENCHMARK.json lists an unknown workload");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                text.contains(&needle),
                "{needle} missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = "--workload serve-small --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let p = parse_args(&a).unwrap();
        assert_eq!(p.workload, Workload::ServeSmall);
        assert!(p.trace && p.seed == 3);
        let bad: Vec<String> = vec!["--workload".into(), "x".into()];
        assert!(parse_args(&bad).is_err());
    }
}
