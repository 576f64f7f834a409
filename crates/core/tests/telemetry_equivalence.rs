//! Characterization of the datapath's enabled-telemetry surface.
//!
//! Every published series, the whole trace ring and the profiler's call
//! counts are pinned as FNV-1a digests over a grid of runs: every codec ×
//! T ∈ {0, 4} × {no memory unit, `Stall`, tight `DegradeLossy`, `Fail`
//! erroring mid-frame} × {no faults, seeded faults}, each run whole-frame
//! and row-streamed, plus threshold retunes between frames and a 4-strip
//! sharded run (report only: trace order across strips depends on
//! scheduling). How and when the datapath publishes may change; what it
//! publishes may not.
//!
//! On a mismatch the test prints the full table of actual digests.

use std::fmt::Write as _;
use sw_bitstream::digest::Fnv64;
use sw_core::arch::{build_arch, SlidingWindowArch};
use sw_core::codec::LineCodecKind;
use sw_core::config::ArchConfig;
use sw_core::faults::FaultInjector;
use sw_core::kernels::BoxFilter;
use sw_core::memory_unit::{MemoryUnitConfig, OverflowPolicy};
use sw_core::shard::ShardedFrameRunner;
use sw_image::{ImageU8, ScenePreset};
use sw_pool::ThreadPool;
use sw_telemetry::TelemetryHandle;

const N: usize = 4;
const W: usize = 32;
const H: usize = 20;
const NAME: &str = "eq";

fn scene() -> ImageU8 {
    ScenePreset::ALL[0].render(W, H)
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Digests of one run's telemetry: `(report JSON, trace JSONL, sorted
/// profile (path, calls))`.
fn digests(tele: &TelemetryHandle) -> (u64, u64, u64) {
    let report = fnv(tele.report().to_json().as_bytes());
    let mut trace = Vec::new();
    tele.write_trace_jsonl(&mut trace).unwrap();
    let mut calls = String::new();
    for (path, p) in &tele.profile_snapshot().paths {
        writeln!(calls, "{path}\t{}", p.calls).unwrap();
    }
    (report, fnv(&trace), fnv(calls.as_bytes()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Budget {
    None,
    Stall,
    Degrade,
    Fail,
}

impl Budget {
    const ALL: [Budget; 4] = [Budget::None, Budget::Stall, Budget::Degrade, Budget::Fail];

    fn name(self) -> &'static str {
        match self {
            Budget::None => "none",
            Budget::Stall => "stall",
            Budget::Degrade => "degrade",
            Budget::Fail => "fail",
        }
    }

    /// A budget that binds on this frame: `peak` is the codec's lossless
    /// unbounded peak occupancy.
    fn config(self, peak: u64) -> Option<MemoryUnitConfig> {
        match self {
            Budget::None => None,
            Budget::Stall => Some(MemoryUnitConfig::new(peak / 2, OverflowPolicy::Stall)),
            Budget::Degrade => Some(MemoryUnitConfig::new(
                peak / 4,
                OverflowPolicy::DegradeLossy,
            )),
            Budget::Fail => Some(MemoryUnitConfig::new(peak * 3 / 4, OverflowPolicy::Fail)),
        }
    }
}

fn lossless_peak(img: &ImageU8, codec: LineCodecKind) -> u64 {
    let cfg = ArchConfig::new(N, W).with_codec(codec);
    build_arch(&cfg)
        .unwrap()
        .process_frame(img, &BoxFilter::new(N))
        .unwrap()
        .stats
        .peak_payload_occupancy
}

fn arch_for(
    tele: &TelemetryHandle,
    codec: LineCodecKind,
    t: i16,
    mu: Option<MemoryUnitConfig>,
    faults: Option<u64>,
) -> Box<dyn SlidingWindowArch + Send> {
    let cfg = ArchConfig::new(N, W).with_codec(codec).with_threshold(t);
    let mut arch = build_arch(&cfg).unwrap();
    arch.bind_telemetry(tele, NAME);
    arch.set_memory_unit(mu);
    arch.set_fault_injector(faults.map(FaultInjector::seeded));
    arch
}

/// Stream `img` row by row, stopping at the first error; returns whether
/// the frame completed. After every accepted row the encoded-group
/// counter must already hold that row's groups: a scrape lags the
/// datapath by at most one row.
fn stream(
    arch: &mut dyn SlidingWindowArch,
    img: &ImageU8,
    tele: &TelemetryHandle,
    case: &str,
) -> bool {
    let kernel = BoxFilter::new(N);
    let group = arch.codec_kind().group_width();
    arch.begin_frame(img.height()).unwrap();
    for r in 0..img.height() {
        if arch.push_row(img.row(r), &kernel).is_err() {
            return false;
        }
        if arch.codec_kind() != LineCodecKind::Raw {
            let pairs = tele.report().counters[&format!("stage.{NAME}.iwt_pairs")];
            assert_eq!(
                pairs,
                ((r + 1) * W / group) as u64,
                "{case}: iwt_pairs after row {r}"
            );
        }
    }
    arch.finish_frame().is_ok()
}

/// Every case id with its actual digests, in a fixed order.
fn actual() -> Vec<(String, (u64, u64, u64))> {
    let img = scene();
    let kernel = BoxFilter::new(N);
    let mut out = Vec::new();
    for codec in LineCodecKind::ALL {
        let peak = lossless_peak(&img, codec);
        for t in [0i16, 4] {
            for budget in Budget::ALL {
                for faults in [None, Some(7 + t as u64)] {
                    for streamed in [false, true] {
                        let case = format!(
                            "{}/t{t}/{}/{}/{}",
                            codec.name(),
                            budget.name(),
                            if faults.is_some() { "faults" } else { "clean" },
                            if streamed { "rows" } else { "frame" }
                        );
                        let tele = TelemetryHandle::new();
                        let mut arch = arch_for(&tele, codec, t, budget.config(peak), faults);
                        let completed = if streamed {
                            stream(arch.as_mut(), &img, &tele, &case)
                        } else {
                            arch.process_frame(&img, &kernel).is_ok()
                        };
                        // The grid exercises what it claims to.
                        let r = tele.report();
                        let memunit = |s: &str| r.counters[&format!("memunit.{NAME}.{s}")];
                        match budget {
                            Budget::None => {}
                            Budget::Stall => assert!(memunit("stall_cycles") > 0, "{case}"),
                            Budget::Degrade => assert!(
                                memunit("escalations") + memunit("overflow_events") > 0,
                                "{case}"
                            ),
                            Budget::Fail => assert!(!completed, "{case}"),
                        }
                        out.push((case, digests(&tele)));
                    }
                }
            }
        }
        // Threshold retunes between frames: a degrade escalation, the
        // frame-boundary restore of the base threshold, then an explicit
        // `set_threshold`.
        for budget in [Budget::None, Budget::Degrade] {
            let tele = TelemetryHandle::new();
            let mut arch = arch_for(&tele, codec, 0, budget.config(peak), None);
            let _ = arch.process_frame(&img, &kernel);
            let _ = arch.process_frame(&img, &kernel);
            arch.set_threshold(4);
            let _ = arch.process_frame(&img, &kernel);
            out.push((
                format!("{}/retune/{}", codec.name(), budget.name()),
                digests(&tele),
            ));
        }
        // Four strips: only the report is pinned.
        let tele = TelemetryHandle::new();
        let cfg = ArchConfig::new(N, W).with_codec(codec).with_threshold(4);
        let runner = ShardedFrameRunner::new(cfg)
            .with_strips(4)
            .with_memory_unit(MemoryUnitConfig::new(peak, OverflowPolicy::Stall))
            .with_named_telemetry(&tele, NAME);
        runner.run(&img, &kernel, &ThreadPool::new(1)).unwrap();
        let (report, _, _) = digests(&tele);
        out.push((format!("{}/strips4", codec.name()), (report, 0, 0)));
    }
    out
}

/// `(case, report, trace, profile calls)`, recorded before the datapath
/// batched its telemetry per row.
#[rustfmt::skip]
const EXPECTED: &[(&str, u64, u64, u64)] = &[
    ("raw/t0/none/clean/frame", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t0/none/clean/rows", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t0/none/faults/frame", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t0/none/faults/rows", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t0/stall/clean/frame", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xc28f9c8f278d9da3),
    ("raw/t0/stall/clean/rows", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xcb04e595871cf648),
    ("raw/t0/stall/faults/frame", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xc28f9c8f278d9da3),
    ("raw/t0/stall/faults/rows", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xcb04e595871cf648),
    ("raw/t0/degrade/clean/frame", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t0/degrade/clean/rows", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t0/degrade/faults/frame", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t0/degrade/faults/rows", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t0/fail/clean/frame", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xedc5e706ffe6e7ca),
    ("raw/t0/fail/clean/rows", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xcbf29ce484222325),
    ("raw/t0/fail/faults/frame", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xedc5e706ffe6e7ca),
    ("raw/t0/fail/faults/rows", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xcbf29ce484222325),
    ("raw/t4/none/clean/frame", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t4/none/clean/rows", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t4/none/faults/frame", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t4/none/faults/rows", 0x7953107cfd75247c, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t4/stall/clean/frame", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xc28f9c8f278d9da3),
    ("raw/t4/stall/clean/rows", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xcb04e595871cf648),
    ("raw/t4/stall/faults/frame", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xc28f9c8f278d9da3),
    ("raw/t4/stall/faults/rows", 0x7aa067d5872af2af, 0x325e89042d7bcd7e, 0xcb04e595871cf648),
    ("raw/t4/degrade/clean/frame", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t4/degrade/clean/rows", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t4/degrade/faults/frame", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xc28f9c8f278d9da3),
    ("raw/t4/degrade/faults/rows", 0xbc64ecba102f7096, 0x269411ae69b2bd97, 0xcb04e595871cf648),
    ("raw/t4/fail/clean/frame", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xedc5e706ffe6e7ca),
    ("raw/t4/fail/clean/rows", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xcbf29ce484222325),
    ("raw/t4/fail/faults/frame", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xedc5e706ffe6e7ca),
    ("raw/t4/fail/faults/rows", 0xe1c2f5014c03a04a, 0x7d58af92eb536a3b, 0xcbf29ce484222325),
    ("raw/retune/none", 0x8a13b87b9bdc82aa, 0xf645b06ab85bfc1b, 0x2ac32c1708c21d44),
    ("raw/retune/degrade", 0x669508c9906047ab, 0xf645b06ab85bfc1b, 0x2ac32c1708c21d44),
    ("raw/strips4", 0xb00ac13f5abb87b9, 0x0000000000000000, 0x0000000000000000),
    ("haar/t0/none/clean/frame", 0xa05a98a497e39bac, 0x46a2587978123cf9, 0xb47540956d2eaf5a),
    ("haar/t0/none/clean/rows", 0xa05a98a497e39bac, 0x46a2587978123cf9, 0xcf9d64976dc13be1),
    ("haar/t0/none/faults/frame", 0x9c611eb52949478a, 0x790d439534a8e252, 0xb47540956d2eaf5a),
    ("haar/t0/none/faults/rows", 0x9c611eb52949478a, 0x790d439534a8e252, 0xcf9d64976dc13be1),
    ("haar/t0/stall/clean/frame", 0x1993be110d07c9e7, 0xef19b45cd9874c71, 0xb47540956d2eaf5a),
    ("haar/t0/stall/clean/rows", 0x1993be110d07c9e7, 0xef19b45cd9874c71, 0xcf9d64976dc13be1),
    ("haar/t0/stall/faults/frame", 0xe983bbf51fc1d1ab, 0x4e27171bae6a4ff9, 0xb47540956d2eaf5a),
    ("haar/t0/stall/faults/rows", 0xe983bbf51fc1d1ab, 0x4e27171bae6a4ff9, 0xcf9d64976dc13be1),
    ("haar/t0/degrade/clean/frame", 0x578ee9966ea1b651, 0xf01a68400e01d00d, 0xb47540956d2eaf5a),
    ("haar/t0/degrade/clean/rows", 0x578ee9966ea1b651, 0xf01a68400e01d00d, 0xcf9d64976dc13be1),
    ("haar/t0/degrade/faults/frame", 0x578ee9966ea1b651, 0xf01a68400e01d00d, 0xb47540956d2eaf5a),
    ("haar/t0/degrade/faults/rows", 0x578ee9966ea1b651, 0xf01a68400e01d00d, 0xcf9d64976dc13be1),
    ("haar/t0/fail/clean/frame", 0xeef204194e9f76a7, 0xf7ae98a418874dc1, 0xedc5e706ffe6e7ca),
    ("haar/t0/fail/clean/rows", 0xeef204194e9f76a7, 0xf7ae98a418874dc1, 0xcbf29ce484222325),
    ("haar/t0/fail/faults/frame", 0xeef204194e9f76a7, 0xf7ae98a418874dc1, 0xedc5e706ffe6e7ca),
    ("haar/t0/fail/faults/rows", 0xeef204194e9f76a7, 0xf7ae98a418874dc1, 0xcbf29ce484222325),
    ("haar/t4/none/clean/frame", 0x9737d8ca6f1cc1d0, 0x9966550333595800, 0xb47540956d2eaf5a),
    ("haar/t4/none/clean/rows", 0x9737d8ca6f1cc1d0, 0x9966550333595800, 0xcf9d64976dc13be1),
    ("haar/t4/none/faults/frame", 0x9737d8ca6f1cc1d0, 0x9966550333595800, 0xb47540956d2eaf5a),
    ("haar/t4/none/faults/rows", 0x9737d8ca6f1cc1d0, 0x9966550333595800, 0xcf9d64976dc13be1),
    ("haar/t4/stall/clean/frame", 0x1917041cffe8cab9, 0xd634065770c7d698, 0xb47540956d2eaf5a),
    ("haar/t4/stall/clean/rows", 0x1917041cffe8cab9, 0xd634065770c7d698, 0xcf9d64976dc13be1),
    ("haar/t4/stall/faults/frame", 0x1917041cffe8cab9, 0xd634065770c7d698, 0xb47540956d2eaf5a),
    ("haar/t4/stall/faults/rows", 0x1917041cffe8cab9, 0xd634065770c7d698, 0xcf9d64976dc13be1),
    ("haar/t4/degrade/clean/frame", 0x5646e91f47163377, 0x29fa29b5d1cad2a4, 0xb47540956d2eaf5a),
    ("haar/t4/degrade/clean/rows", 0x5646e91f47163377, 0x29fa29b5d1cad2a4, 0xcf9d64976dc13be1),
    ("haar/t4/degrade/faults/frame", 0x5646e91f47163377, 0x29fa29b5d1cad2a4, 0xb47540956d2eaf5a),
    ("haar/t4/degrade/faults/rows", 0x5646e91f47163377, 0x29fa29b5d1cad2a4, 0xcf9d64976dc13be1),
    ("haar/t4/fail/clean/frame", 0xf4cfb143f9aa0e8a, 0x67728a3478d605ef, 0xedc5e706ffe6e7ca),
    ("haar/t4/fail/clean/rows", 0xf4cfb143f9aa0e8a, 0x67728a3478d605ef, 0xcbf29ce484222325),
    ("haar/t4/fail/faults/frame", 0xf4cfb143f9aa0e8a, 0x67728a3478d605ef, 0xedc5e706ffe6e7ca),
    ("haar/t4/fail/faults/rows", 0xf4cfb143f9aa0e8a, 0x67728a3478d605ef, 0xcbf29ce484222325),
    ("haar/retune/none", 0xbcf13cd761c290c3, 0xc559d1a3ce79e950, 0xab71bb083e01c353),
    ("haar/retune/degrade", 0xc288878d9dce7c3d, 0x6f94c7c9bc129ed4, 0xab71bb083e01c353),
    ("haar/strips4", 0xb00ac13f5abb87b9, 0x0000000000000000, 0x0000000000000000),
    ("haar2/t0/none/clean/frame", 0x6801255b5d3cceb3, 0xf0b327c13cce31d6, 0x05457d5b72ef627c),
    ("haar2/t0/none/clean/rows", 0x6801255b5d3cceb3, 0xf0b327c13cce31d6, 0xa4e63da05bada967),
    ("haar2/t0/none/faults/frame", 0x6801255b5d3cceb3, 0xf0b327c13cce31d6, 0x05457d5b72ef627c),
    ("haar2/t0/none/faults/rows", 0x6801255b5d3cceb3, 0xf0b327c13cce31d6, 0xa4e63da05bada967),
    ("haar2/t0/stall/clean/frame", 0x33711c83d6397fe2, 0x983952f2546c7daa, 0x05457d5b72ef627c),
    ("haar2/t0/stall/clean/rows", 0x33711c83d6397fe2, 0x983952f2546c7daa, 0xa4e63da05bada967),
    ("haar2/t0/stall/faults/frame", 0x33711c83d6397fe2, 0x983952f2546c7daa, 0x05457d5b72ef627c),
    ("haar2/t0/stall/faults/rows", 0x33711c83d6397fe2, 0x983952f2546c7daa, 0xa4e63da05bada967),
    ("haar2/t0/degrade/clean/frame", 0xca6ace0ac0380091, 0x35398d8764d79316, 0x05457d5b72ef627c),
    ("haar2/t0/degrade/clean/rows", 0xca6ace0ac0380091, 0x35398d8764d79316, 0xa4e63da05bada967),
    ("haar2/t0/degrade/faults/frame", 0xca6ace0ac0380091, 0x35398d8764d79316, 0x05457d5b72ef627c),
    ("haar2/t0/degrade/faults/rows", 0xca6ace0ac0380091, 0x35398d8764d79316, 0xa4e63da05bada967),
    ("haar2/t0/fail/clean/frame", 0x1fef5c4abfa1a44d, 0x768b368aa6e5d25f, 0xedc5e706ffe6e7ca),
    ("haar2/t0/fail/clean/rows", 0x1fef5c4abfa1a44d, 0x768b368aa6e5d25f, 0xcbf29ce484222325),
    ("haar2/t0/fail/faults/frame", 0x1fef5c4abfa1a44d, 0x768b368aa6e5d25f, 0xedc5e706ffe6e7ca),
    ("haar2/t0/fail/faults/rows", 0x1fef5c4abfa1a44d, 0x768b368aa6e5d25f, 0xcbf29ce484222325),
    ("haar2/t4/none/clean/frame", 0x414e35a82a50d778, 0xad6491eb6397f3e1, 0x05457d5b72ef627c),
    ("haar2/t4/none/clean/rows", 0x414e35a82a50d778, 0xad6491eb6397f3e1, 0xa4e63da05bada967),
    ("haar2/t4/none/faults/frame", 0x414e35a82a50d778, 0xad6491eb6397f3e1, 0x05457d5b72ef627c),
    ("haar2/t4/none/faults/rows", 0x414e35a82a50d778, 0xad6491eb6397f3e1, 0xa4e63da05bada967),
    ("haar2/t4/stall/clean/frame", 0x16d8daf278223251, 0x5904b8e7883e1621, 0x05457d5b72ef627c),
    ("haar2/t4/stall/clean/rows", 0x16d8daf278223251, 0x5904b8e7883e1621, 0xa4e63da05bada967),
    ("haar2/t4/stall/faults/frame", 0x16d8daf278223251, 0x5904b8e7883e1621, 0x05457d5b72ef627c),
    ("haar2/t4/stall/faults/rows", 0x16d8daf278223251, 0x5904b8e7883e1621, 0xa4e63da05bada967),
    ("haar2/t4/degrade/clean/frame", 0xc04577deb0718e8f, 0xe744bc50ce0c9ffc, 0x05457d5b72ef627c),
    ("haar2/t4/degrade/clean/rows", 0xc04577deb0718e8f, 0xe744bc50ce0c9ffc, 0xa4e63da05bada967),
    ("haar2/t4/degrade/faults/frame", 0xc04577deb0718e8f, 0xe744bc50ce0c9ffc, 0x05457d5b72ef627c),
    ("haar2/t4/degrade/faults/rows", 0xc04577deb0718e8f, 0xe744bc50ce0c9ffc, 0xa4e63da05bada967),
    ("haar2/t4/fail/clean/frame", 0x1f7cb17505b9268f, 0x5436616f8f9e6259, 0xedc5e706ffe6e7ca),
    ("haar2/t4/fail/clean/rows", 0x1f7cb17505b9268f, 0x5436616f8f9e6259, 0xcbf29ce484222325),
    ("haar2/t4/fail/faults/frame", 0x1f7cb17505b9268f, 0x5436616f8f9e6259, 0xedc5e706ffe6e7ca),
    ("haar2/t4/fail/faults/rows", 0x1f7cb17505b9268f, 0x5436616f8f9e6259, 0xcbf29ce484222325),
    ("haar2/retune/none", 0x6fc5638a6f36012d, 0xfacc22782fcd1b55, 0x4f0a473a01fc9510),
    ("haar2/retune/degrade", 0xa96398a73b7aab50, 0x8fc3bf3c8a665368, 0x4f0a473a01fc9510),
    ("haar2/strips4", 0xb00ac13f5abb87b9, 0x0000000000000000, 0x0000000000000000),
    ("legall/t0/none/clean/frame", 0x31cfa2a471eb0ae8, 0xb0b72c623c5044f2, 0xc28f9c8f278d9da3),
    ("legall/t0/none/clean/rows", 0x31cfa2a471eb0ae8, 0xb0b72c623c5044f2, 0xcb04e595871cf648),
    ("legall/t0/none/faults/frame", 0x31cfa2a471eb0ae8, 0xb0b72c623c5044f2, 0xc28f9c8f278d9da3),
    ("legall/t0/none/faults/rows", 0x31cfa2a471eb0ae8, 0xb0b72c623c5044f2, 0xcb04e595871cf648),
    ("legall/t0/stall/clean/frame", 0xf1ed2c2327c1e625, 0x6bed069efa9edede, 0xc28f9c8f278d9da3),
    ("legall/t0/stall/clean/rows", 0xf1ed2c2327c1e625, 0x6bed069efa9edede, 0xcb04e595871cf648),
    ("legall/t0/stall/faults/frame", 0xf1ed2c2327c1e625, 0x6bed069efa9edede, 0xc28f9c8f278d9da3),
    ("legall/t0/stall/faults/rows", 0xf1ed2c2327c1e625, 0x6bed069efa9edede, 0xcb04e595871cf648),
    ("legall/t0/degrade/clean/frame", 0xd01bafecf106f9fe, 0x9e908bdcfe2e3693, 0xc28f9c8f278d9da3),
    ("legall/t0/degrade/clean/rows", 0xd01bafecf106f9fe, 0x9e908bdcfe2e3693, 0xcb04e595871cf648),
    ("legall/t0/degrade/faults/frame", 0xf9f54e013f6e0346, 0x244dc2271866d6bd, 0xc28f9c8f278d9da3),
    ("legall/t0/degrade/faults/rows", 0xf9f54e013f6e0346, 0x244dc2271866d6bd, 0xcb04e595871cf648),
    ("legall/t0/fail/clean/frame", 0xa0d595729a2ba3fc, 0x1508df366181b056, 0xedc5e706ffe6e7ca),
    ("legall/t0/fail/clean/rows", 0xa0d595729a2ba3fc, 0x1508df366181b056, 0xcbf29ce484222325),
    ("legall/t0/fail/faults/frame", 0xa0d595729a2ba3fc, 0x1508df366181b056, 0xedc5e706ffe6e7ca),
    ("legall/t0/fail/faults/rows", 0xa0d595729a2ba3fc, 0x1508df366181b056, 0xcbf29ce484222325),
    ("legall/t4/none/clean/frame", 0x3817841364a21ae7, 0x091a9dfa21c0896b, 0xc28f9c8f278d9da3),
    ("legall/t4/none/clean/rows", 0x3817841364a21ae7, 0x091a9dfa21c0896b, 0xcb04e595871cf648),
    ("legall/t4/none/faults/frame", 0x3817841364a21ae7, 0x091a9dfa21c0896b, 0xc28f9c8f278d9da3),
    ("legall/t4/none/faults/rows", 0x3817841364a21ae7, 0x091a9dfa21c0896b, 0xcb04e595871cf648),
    ("legall/t4/stall/clean/frame", 0x1f0c38c56797a52d, 0x6ae208e420688393, 0xc28f9c8f278d9da3),
    ("legall/t4/stall/clean/rows", 0x1f0c38c56797a52d, 0x6ae208e420688393, 0xcb04e595871cf648),
    ("legall/t4/stall/faults/frame", 0x1f0c38c56797a52d, 0x6ae208e420688393, 0xc28f9c8f278d9da3),
    ("legall/t4/stall/faults/rows", 0x1f0c38c56797a52d, 0x6ae208e420688393, 0xcb04e595871cf648),
    ("legall/t4/degrade/clean/frame", 0x237754c11e0c48ab, 0x9e908bdcfe2e3693, 0xc28f9c8f278d9da3),
    ("legall/t4/degrade/clean/rows", 0x237754c11e0c48ab, 0x9e908bdcfe2e3693, 0xcb04e595871cf648),
    ("legall/t4/degrade/faults/frame", 0x237754c11e0c48ab, 0x9e908bdcfe2e3693, 0xc28f9c8f278d9da3),
    ("legall/t4/degrade/faults/rows", 0x237754c11e0c48ab, 0x9e908bdcfe2e3693, 0xcb04e595871cf648),
    ("legall/t4/fail/clean/frame", 0x9b61c3133c991c20, 0x6c024972564932a3, 0xedc5e706ffe6e7ca),
    ("legall/t4/fail/clean/rows", 0x9b61c3133c991c20, 0x6c024972564932a3, 0xcbf29ce484222325),
    ("legall/t4/fail/faults/frame", 0x9b61c3133c991c20, 0x6c024972564932a3, 0xedc5e706ffe6e7ca),
    ("legall/t4/fail/faults/rows", 0x9b61c3133c991c20, 0x6c024972564932a3, 0xcbf29ce484222325),
    ("legall/retune/none", 0xdf12c8b8793fe27e, 0x742b97e0684be6ff, 0x2ac32c1708c21d44),
    ("legall/retune/degrade", 0x69a5ae5446ce3e01, 0x456f740d020ba883, 0x2ac32c1708c21d44),
    ("legall/strips4", 0xb00ac13f5abb87b9, 0x0000000000000000, 0x0000000000000000),
    ("locoi/t0/none/clean/frame", 0xda52256ecbc3e178, 0x380ae37d3ca7ce6a, 0xc28f9c8f278d9da3),
    ("locoi/t0/none/clean/rows", 0xda52256ecbc3e178, 0x380ae37d3ca7ce6a, 0xcb04e595871cf648),
    ("locoi/t0/none/faults/frame", 0xda52256ecbc3e178, 0x380ae37d3ca7ce6a, 0xc28f9c8f278d9da3),
    ("locoi/t0/none/faults/rows", 0xda52256ecbc3e178, 0x380ae37d3ca7ce6a, 0xcb04e595871cf648),
    ("locoi/t0/stall/clean/frame", 0xca8d97c6d85a6174, 0x05653cdd8a57248a, 0xc28f9c8f278d9da3),
    ("locoi/t0/stall/clean/rows", 0xca8d97c6d85a6174, 0x05653cdd8a57248a, 0xcb04e595871cf648),
    ("locoi/t0/stall/faults/frame", 0xca8d97c6d85a6174, 0x05653cdd8a57248a, 0xc28f9c8f278d9da3),
    ("locoi/t0/stall/faults/rows", 0xca8d97c6d85a6174, 0x05653cdd8a57248a, 0xcb04e595871cf648),
    ("locoi/t0/degrade/clean/frame", 0x5dd9918090213ebf, 0x380ae37d3ca7ce6a, 0xc28f9c8f278d9da3),
    ("locoi/t0/degrade/clean/rows", 0x5dd9918090213ebf, 0x380ae37d3ca7ce6a, 0xcb04e595871cf648),
    ("locoi/t0/degrade/faults/frame", 0x5dd9918090213ebf, 0x380ae37d3ca7ce6a, 0xc28f9c8f278d9da3),
    ("locoi/t0/degrade/faults/rows", 0x5dd9918090213ebf, 0x380ae37d3ca7ce6a, 0xcb04e595871cf648),
    ("locoi/t0/fail/clean/frame", 0xd561f896602230e4, 0xe426984c720c12ff, 0xedc5e706ffe6e7ca),
    ("locoi/t0/fail/clean/rows", 0xd561f896602230e4, 0xe426984c720c12ff, 0xcbf29ce484222325),
    ("locoi/t0/fail/faults/frame", 0xd561f896602230e4, 0xe426984c720c12ff, 0xedc5e706ffe6e7ca),
    ("locoi/t0/fail/faults/rows", 0xd561f896602230e4, 0xe426984c720c12ff, 0xcbf29ce484222325),
    ("locoi/t4/none/clean/frame", 0xace46b0fdf694854, 0x380ae37d3ca7ce6a, 0xc28f9c8f278d9da3),
    ("locoi/t4/none/clean/rows", 0xace46b0fdf694854, 0x380ae37d3ca7ce6a, 0xcb04e595871cf648),
    ("locoi/t4/none/faults/frame", 0x63bf6dd0d31aed45, 0xfd06a64f9c83d320, 0xc28f9c8f278d9da3),
    ("locoi/t4/none/faults/rows", 0x63bf6dd0d31aed45, 0xfd06a64f9c83d320, 0xcb04e595871cf648),
    ("locoi/t4/stall/clean/frame", 0xe377dfa0bfacec98, 0x05653cdd8a57248a, 0xc28f9c8f278d9da3),
    ("locoi/t4/stall/clean/rows", 0xe377dfa0bfacec98, 0x05653cdd8a57248a, 0xcb04e595871cf648),
    ("locoi/t4/stall/faults/frame", 0x8d3b362e34742c68, 0x27e00f8382844ac8, 0xc28f9c8f278d9da3),
    ("locoi/t4/stall/faults/rows", 0x8d3b362e34742c68, 0x27e00f8382844ac8, 0xcb04e595871cf648),
    ("locoi/t4/degrade/clean/frame", 0xe915308889add37b, 0x380ae37d3ca7ce6a, 0xc28f9c8f278d9da3),
    ("locoi/t4/degrade/clean/rows", 0xe915308889add37b, 0x380ae37d3ca7ce6a, 0xcb04e595871cf648),
    ("locoi/t4/degrade/faults/frame", 0xaa9f64c381eca916, 0xfd06a64f9c83d320, 0xc28f9c8f278d9da3),
    ("locoi/t4/degrade/faults/rows", 0xaa9f64c381eca916, 0xfd06a64f9c83d320, 0xcb04e595871cf648),
    ("locoi/t4/fail/clean/frame", 0x2feb3a941045bf90, 0xe426984c720c12ff, 0xedc5e706ffe6e7ca),
    ("locoi/t4/fail/clean/rows", 0x2feb3a941045bf90, 0xe426984c720c12ff, 0xcbf29ce484222325),
    ("locoi/t4/fail/faults/frame", 0x2feb3a941045bf90, 0xe426984c720c12ff, 0xedc5e706ffe6e7ca),
    ("locoi/t4/fail/faults/rows", 0x2feb3a941045bf90, 0xe426984c720c12ff, 0xcbf29ce484222325),
    ("locoi/retune/none", 0x8e5d29b710e1f22b, 0x816a7bbbfbaa9458, 0x2ac32c1708c21d44),
    ("locoi/retune/degrade", 0x84800b7d825cd945, 0x816a7bbbfbaa9458, 0x2ac32c1708c21d44),
    ("locoi/strips4", 0xb00ac13f5abb87b9, 0x0000000000000000, 0x0000000000000000),
];

#[test]
fn enabled_telemetry_matches_the_recorded_characterization() {
    let actual = actual();
    let mut table = String::new();
    for (case, (r, t, p)) in &actual {
        writeln!(table, "    (\"{case}\", {r:#018x}, {t:#018x}, {p:#018x}),").unwrap();
    }
    let expected: Vec<(String, (u64, u64, u64))> = EXPECTED
        .iter()
        .map(|&(c, r, t, p)| (c.to_string(), (r, t, p)))
        .collect();
    let drift: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, _)| a.0.as_str())
        .collect();
    assert!(
        actual.len() == expected.len() && drift.is_empty(),
        "telemetry drifted in {} case(s), first {:?}; actual table:\n{table}",
        drift.len(),
        drift.first()
    );
}
