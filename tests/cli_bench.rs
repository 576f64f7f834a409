//! End-to-end test of `swc bench`: the matrix runs, the `--json`
//! trajectory lands on disk with the stable `swc-bench-v1` schema and
//! every matrix cell, the report self-compares clean, the regression
//! gate fails (exit code and message) on a doctored slowdown unless
//! `--warn-only`, and flag misuse gets a friendly error.

use modified_sliding_window::bench::perf;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swc-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn swc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swc"))
}

#[test]
fn bench_json_writes_a_schema_stable_trajectory() {
    let dir = temp_dir("json");
    let out = dir.join("bench.json");
    let output = swc()
        .args(["bench", "--quick", "--json", "--jobs", "2"])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("run swc bench");
    assert!(output.status.success(), "swc bench failed");

    let text = std::fs::read_to_string(&out).expect("read trajectory");
    let report = perf::BenchReport::from_json(&text).expect("parse trajectory");
    assert_eq!(report.schema, perf::SCHEMA);
    assert_eq!(report.version, perf::SCHEMA_VERSION);
    assert!(report.settings.quick);

    // Every matrix cell is present, in order, with sane numbers.
    let ids: Vec<String> = report.cells.iter().map(|c| c.cell.clone()).collect();
    assert_eq!(ids, perf::matrix_cell_ids());
    for c in &report.cells {
        assert!(c.mpix_per_s > 0.0, "{}: zero throughput", c.cell);
        assert!(c.p99_ns >= c.p50_ns, "{}: p99 < p50", c.cell);
        assert!(!c.stage_breakdown.is_empty(), "{}: no profile", c.cell);
    }
    // Every cell reports its buffered payload (raw cells report the
    // uncompressed row bytes), and the lossless Haar codec packs fewer
    // bytes than raw buffering on the natural test scene.
    for c in &report.cells {
        assert!(c.bytes_packed > 0, "{}", c.cell);
    }
    let packed = |id: &str| {
        report
            .cells
            .iter()
            .find(|c| c.cell == id)
            .map(|c| c.bytes_packed)
            .unwrap()
    };
    assert!(packed("box/haar/seq") < packed("box/raw/seq"));

    // A trajectory always compares clean against itself.
    let output = swc()
        .args(["bench", "--compare"])
        .args([out.to_str().unwrap(), out.to_str().unwrap()])
        .output()
        .expect("run swc bench --compare");
    assert!(output.status.success(), "self-compare must pass");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("OK: no cell regressed"), "{stdout}");
}

#[test]
fn compare_gate_fails_on_a_doctored_slowdown_unless_warn_only() {
    let dir = temp_dir("gate");
    let base_path = dir.join("base.json");
    let slow_path = dir.join("slow.json");

    // A synthetic baseline (no need to run the matrix twice): one cell
    // slowed by 20% must trip the 10% gate.
    let cell = |id: &str, mpix: f64| perf::CellResult {
        cell: id.to_string(),
        kernel: "box".to_string(),
        codec: "haar".to_string(),
        mode: "seq".to_string(),
        mpix_per_s: mpix,
        p50_ns: 1_000,
        p99_ns: 1_500,
        bytes_packed: 64,
        stage_breakdown: vec![perf::StageTime {
            stage: "frame".to_string(),
            total_ns: 1_000,
            self_ns: 1_000,
            calls: 1,
        }],
    };
    let report = |mpix: f64| perf::BenchReport {
        schema: perf::SCHEMA.to_string(),
        version: perf::SCHEMA_VERSION,
        created_utc: "2026-08-07".to_string(),
        workload: "window".to_string(),
        settings: perf::BenchSettings::quick(2),
        cells: vec![cell("box/haar/seq", 10.0), cell("box/haar/par", mpix)],
    };
    std::fs::write(&base_path, report(20.0).to_json()).unwrap();
    std::fs::write(&slow_path, report(16.0).to_json()).unwrap();

    let output = swc()
        .args(["bench", "--compare"])
        .args([base_path.to_str().unwrap(), slow_path.to_str().unwrap()])
        .output()
        .expect("run gate");
    assert!(
        !output.status.success(),
        "a 20% slowdown must fail the gate"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("box/haar/par"), "{stdout}");

    // --warn-only reports the same diff but exits 0 (the CI smoke mode).
    let output = swc()
        .args(["bench", "--compare"])
        .args([base_path.to_str().unwrap(), slow_path.to_str().unwrap()])
        .arg("--warn-only")
        .output()
        .expect("run gate warn-only");
    assert!(output.status.success(), "--warn-only must exit 0");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");

    // A wider gate tolerates the same loss.
    let output = swc()
        .args(["bench", "--compare"])
        .args([base_path.to_str().unwrap(), slow_path.to_str().unwrap()])
        .args(["--max-loss", "25"])
        .output()
        .expect("run gate wide");
    assert!(output.status.success(), "25% gate must tolerate a 20% loss");
}

#[test]
fn compare_with_a_retired_integral_report_is_a_workload_mismatch() {
    // Reports of the retired integral workload still parse; diffing one
    // against a window trajectory is the typed mismatch, not a panic.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let window = root.join("BENCH_2026-08-07.json");
    let integral = root.join("crates/bench/tests/fixtures/legacy_integral_report.json");
    let output = swc()
        .args(["bench", "--compare"])
        .args([window.to_str().unwrap(), integral.to_str().unwrap()])
        .output()
        .expect("run swc bench --compare");
    assert!(!output.status.success(), "mismatched workloads must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("workload mismatch"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bench_rejects_flag_misuse_with_friendly_errors() {
    let cases: &[&[&str]] = &[
        &["bench", "--compare", "only-one.json"],
        &["bench", "--warn-only"],
        &["bench", "--quick", "--compare", "a.json", "b.json"],
        &["bench", "--max-loss", "banana"],
        &["bench", "--frobnicate"],
    ];
    for args in cases {
        let output = swc().args(*args).output().expect("run swc");
        assert!(!output.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
    }
    // Missing baseline file: a readable I/O error, not a panic.
    let output = swc()
        .args([
            "bench",
            "--compare",
            "/nonexistent/a.json",
            "/nonexistent/b.json",
        ])
        .output()
        .expect("run swc");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}
