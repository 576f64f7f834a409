//! End-to-end test of the `swc` error paths: every user mistake (bad PGM,
//! unknown codec, invalid geometry, malformed flags) must exit non-zero
//! with a friendly `error:` message — never a panic — and the overflow
//! policy / fault-injection flags must map typed datapath errors onto the
//! same contract.

use modified_sliding_window::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swc-errors-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_scene(dir: &std::path::Path, w: usize, h: usize) -> PathBuf {
    let img = ScenePreset::ALL[0].render(w, h);
    let path = dir.join("scene.pgm");
    modified_sliding_window::image::pgm::write_pgm(&img, &path).expect("write pgm");
    path
}

fn swc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swc"))
        .args(args)
        .output()
        .expect("run swc")
}

/// Non-zero exit, an `error:` line mentioning `needle`, and no panic text.
fn assert_friendly_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected failure, got success (stderr: {stderr})"
    );
    assert!(
        stderr.contains("error:"),
        "missing error prefix in: {stderr}"
    );
    assert!(stderr.contains(needle), "expected '{needle}' in: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "CLI panicked instead of reporting: {stderr}"
    );
}

#[test]
fn missing_image_fails_cleanly() {
    let out = swc(&["analyze", "/nonexistent/input.pgm", "--window", "8"]);
    assert_friendly_failure(&out, "cannot read");
}

#[test]
fn corrupt_pgm_fails_cleanly() {
    let dir = temp_dir("badpgm");
    let path = dir.join("bad.pgm");
    std::fs::write(&path, b"P5 not a real header \xff\xfe").expect("write bad pgm");
    let out = swc(&["analyze", path.to_str().unwrap(), "--window", "8"]);
    assert_friendly_failure(&out, "cannot read");
}

#[test]
fn unknown_codec_fails_cleanly() {
    let dir = temp_dir("codec");
    let pgm = write_scene(&dir, 64, 48);
    let out = swc(&[
        "analyze",
        pgm.to_str().unwrap(),
        "--window",
        "8",
        "--codec",
        "zstd",
    ]);
    assert_friendly_failure(&out, "unknown codec 'zstd'");
}

#[test]
fn invalid_window_geometry_fails_cleanly() {
    let dir = temp_dir("geometry");
    let pgm = write_scene(&dir, 64, 48);
    for bad in ["0", "7", "1"] {
        let out = swc(&["analyze", pgm.to_str().unwrap(), "--window", bad]);
        assert_friendly_failure(&out, "--window must be an even integer");
    }
    // Frame narrower than the window: rejected before the datapath runs.
    let out = swc(&["analyze", pgm.to_str().unwrap(), "--window", "64"]);
    assert_friendly_failure(&out, "too small for window");
}

#[test]
fn unknown_overflow_policy_fails_cleanly() {
    let dir = temp_dir("policy");
    let pgm = write_scene(&dir, 64, 48);
    let out = swc(&[
        "analyze",
        pgm.to_str().unwrap(),
        "--window",
        "8",
        "--overflow-policy",
        "explode",
    ]);
    assert_friendly_failure(&out, "unknown overflow policy 'explode'");
}

#[test]
fn bad_fault_seed_fails_cleanly() {
    let dir = temp_dir("seed");
    let pgm = write_scene(&dir, 64, 48);
    let out = swc(&[
        "analyze",
        pgm.to_str().unwrap(),
        "--window",
        "8",
        "--fault-seed",
        "not-a-number",
    ]);
    assert_friendly_failure(&out, "bad --fault-seed");
}

#[test]
fn runtime_flags_rejected_outside_analyze_and_sweep() {
    let dir = temp_dir("reject");
    let pgm = write_scene(&dir, 64, 48);
    let out = swc(&[
        "plan",
        pgm.to_str().unwrap(),
        "--window",
        "8",
        "--overflow-policy",
        "stall",
    ]);
    assert_friendly_failure(&out, "not supported by 'plan'");
}

#[test]
fn fail_policy_on_starved_budget_exits_with_typed_overflow() {
    let dir = temp_dir("fail-policy");
    let pgm = write_scene(&dir, 64, 48);
    let out = swc(&[
        "analyze",
        pgm.to_str().unwrap(),
        "--window",
        "8",
        "--overflow-policy",
        "fail",
        "--budget-fraction",
        "0.0001",
    ]);
    assert_friendly_failure(&out, "overflow");
}

#[test]
fn degrade_policy_on_starved_budget_succeeds_with_outcome_line() {
    let dir = temp_dir("degrade");
    let pgm = write_scene(&dir, 64, 48);
    let out = swc(&[
        "analyze",
        pgm.to_str().unwrap(),
        "--window",
        "8",
        "--overflow-policy",
        "degrade",
        "--budget-fraction",
        "0.05",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "degrade run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("overflow policy 'degrade'"),
        "missing policy outcome in: {stdout}"
    );
    assert!(
        stdout.contains("delivered quality"),
        "degradation must report quality in: {stdout}"
    );
}

#[test]
fn fault_seed_runs_never_panic() {
    let dir = temp_dir("faults");
    let pgm = write_scene(&dir, 64, 48);
    for codec in ["haar", "haar2", "legall", "locoi"] {
        for seed in ["1", "7", "42"] {
            let out = swc(&[
                "analyze",
                pgm.to_str().unwrap(),
                "--window",
                "8",
                "--codec",
                codec,
                "--fault-seed",
                seed,
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !stderr.contains("panicked"),
                "codec {codec} seed {seed} panicked: {stderr}"
            );
            // Either the corruption was detected (typed decode error,
            // non-zero exit) or bounded (MSE reported, zero exit).
            if !out.status.success() {
                assert!(
                    stderr.contains("error:"),
                    "codec {codec} seed {seed} failed without message: {stderr}"
                );
            }
        }
    }
}

#[test]
fn retired_workload_flag_is_an_unknown_option() {
    let dir = temp_dir("workload");
    let pgm = write_scene(&dir, 64, 48);
    let out = swc(&[
        "analyze",
        pgm.to_str().unwrap(),
        "--window",
        "8",
        "--workload",
        "integral",
    ]);
    assert_friendly_failure(&out, "unknown option '--workload'");
}
