//! Coverage-guided fuzz driver.
//!
//! Mutates image dimensions, content class, threshold, budget fraction and
//! fault-injection seeds from a splitmix64 stream; runs the oracle battery
//! on every generated case; tracks which `(codec × policy × shape-class)`
//! coverage cells have been exercised; and shrinks any failing case to a
//! minimal reproducer written to `vectors/regressions/` for permanent
//! replay.

use crate::case::{CaseSpec, ContentClass, KernelKind, ShapeClass};
use crate::oracle::{run_oracles, CaseContext, Verdict};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use sw_bitstream::digest::{fnv1a64, splitmix64};
use sw_core::codec::LineCodecKind;
use sw_core::memory_unit::OverflowPolicy;
use sw_telemetry::json::parse;

/// Deterministic splitmix64 stream.
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform draw in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Coverage over the `(codec × policy × shape-class)` grid.
#[derive(Debug, Default)]
pub struct Coverage {
    cells: BTreeSet<(&'static str, &'static str, &'static str)>,
}

impl Coverage {
    /// Record one case's coverage cell.
    pub fn record(&mut self, spec: &CaseSpec) {
        self.cells
            .insert((spec.codec.name(), spec.policy_name(), spec.shape().name()));
    }

    /// Cells exercised so far.
    pub fn exercised(&self) -> usize {
        self.cells.len()
    }

    /// Total cells in the grid: codecs × (policies + none) × shapes.
    pub fn total() -> usize {
        LineCodecKind::ALL.len() * (OverflowPolicy::ALL.len() + 1) * ShapeClass::ALL.len()
    }

    /// `exercised/total` summary line.
    pub fn summary(&self) -> String {
        format!(
            "coverage: {}/{} (codec x policy x shape) cells exercised",
            self.exercised(),
            Self::total()
        )
    }
}

/// One confirmed fuzz failure.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Id of the case as originally generated.
    pub case_id: String,
    /// Id of the shrunk minimal reproducer.
    pub minimal_id: String,
    /// The first failing verdict on the minimal case.
    pub verdict: String,
    /// Reproducer file, if writing it succeeded.
    pub reproducer: Option<PathBuf>,
}

/// Result of one fuzz campaign.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases generated and judged.
    pub cases: usize,
    /// Confirmed failures, already shrunk.
    pub failures: Vec<FuzzFailure>,
    /// Coverage accumulated over the campaign.
    pub coverage: Coverage,
}

/// Draw one mutated case from the stream.
pub fn random_spec(rng: &mut Rng) -> CaseSpec {
    let window = if rng.below(2) == 0 { 4 } else { 8 };
    // Widths from `window − 4` upward hit narrow-invalid, odd, ragged and
    // aligned geometries with useful frequency; heights from 1 upward hit
    // short frames.
    let width = (window as u64 - 4 + rng.below(48)).max(1) as usize;
    let height = (1 + rng.below(40)) as usize;
    let content = ContentClass::ALL[rng.below(ContentClass::ALL.len() as u64) as usize];
    let kernel = KernelKind::ALL[rng.below(2) as usize];
    let codec = LineCodecKind::ALL[rng.below(LineCodecKind::ALL.len() as u64) as usize];
    let threshold = rng.below(9) as i16;
    let policy = match rng.below(4) {
        0 => None,
        1 => Some(OverflowPolicy::Fail),
        2 => Some(OverflowPolicy::Stall),
        _ => Some(OverflowPolicy::DegradeLossy),
    };
    let budget_pct = [25u32, 50, 100][rng.below(3) as usize];
    let fault_seed = (rng.below(4) == 0).then(|| rng.below(1 << 20));
    // The retired hot-path and workload axes are still drawn, so a seed
    // generates the same window cases it always did.
    let _ = rng.below(2);
    let _ = rng.below(4);
    CaseSpec {
        window,
        width,
        height,
        content,
        content_seed: rng.below(1 << 20),
        kernel,
        codec,
        threshold,
        policy,
        budget_pct,
        fault_seed,
    }
}

/// True when any oracle fails on `spec`.
fn fails(spec: &CaseSpec) -> bool {
    run_oracles(&CaseContext::new(*spec))
        .iter()
        .any(Verdict::is_fail)
}

/// Greedy shrink: try simpler variants (smaller dims, flat content, lower
/// threshold, fewer knobs) and keep any that still fails, until a fixpoint
/// or the evaluation budget runs out.
pub fn shrink(spec: CaseSpec) -> CaseSpec {
    let mut best = spec;
    let mut evals = 0usize;
    loop {
        let mut candidates: Vec<CaseSpec> = Vec::new();
        if best.height > 1 {
            let mut c = best;
            c.height = (best.height / 2).max(1);
            candidates.push(c);
            let mut c = best;
            c.height = best.height - 1;
            candidates.push(c);
        }
        if best.width > 1 {
            let mut c = best;
            c.width = (best.width / 2).max(1);
            candidates.push(c);
            let mut c = best;
            c.width = best.width - 1;
            candidates.push(c);
        }
        if best.fault_seed.is_some() {
            let mut c = best;
            c.fault_seed = None;
            candidates.push(c);
        }
        if best.policy.is_some() {
            let mut c = best;
            c.policy = None;
            candidates.push(c);
        }
        if best.threshold > 0 {
            let mut c = best;
            c.threshold = best.threshold / 2;
            candidates.push(c);
        }
        if best.content != ContentClass::Black {
            let mut c = best;
            c.content = ContentClass::Black;
            candidates.push(c);
        }
        if best.budget_pct < 100 {
            let mut c = best;
            c.budget_pct = 100;
            candidates.push(c);
        }
        let mut improved = false;
        for c in candidates {
            evals += 1;
            if evals > 200 {
                return best;
            }
            if fails(&c) {
                best = c;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Write a reproducer file for a shrunk failure; returns its path.
fn write_reproducer(dir: &Path, minimal: &CaseSpec, verdict: &Verdict) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "fuzz-{:016x}.json",
        fnv1a64(minimal.id().as_bytes())
    ));
    let mut body = String::new();
    body.push_str("{\n  \"spec\": ");
    body.push_str(&minimal.to_json());
    body.push_str(",\n  \"oracle\": ");
    sw_telemetry::json::write_escaped(&mut body, verdict.oracle);
    body.push_str(",\n  \"divergence\": ");
    sw_telemetry::json::write_escaped(&mut body, &verdict.to_string());
    body.push_str("\n}\n");
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Run an `n`-case campaign from `seed`, shrinking failures into
/// `regressions_dir`.
pub fn run_fuzz(n: usize, seed: u64, regressions_dir: &Path) -> FuzzReport {
    let mut rng = Rng::new(seed);
    let mut coverage = Coverage::default();
    let mut failures = Vec::new();
    for _ in 0..n {
        let spec = random_spec(&mut rng);
        coverage.record(&spec);
        let verdicts = run_oracles(&CaseContext::new(spec));
        if verdicts.iter().any(Verdict::is_fail) {
            let minimal = shrink(spec);
            // Re-judge the minimal case to attach its failing verdict.
            let final_verdicts = run_oracles(&CaseContext::new(minimal));
            let failing = final_verdicts
                .iter()
                .find(|v| v.is_fail())
                .or_else(|| verdicts.iter().find(|v| v.is_fail()));
            if let Some(v) = failing {
                let reproducer = write_reproducer(regressions_dir, &minimal, v).ok();
                failures.push(FuzzFailure {
                    case_id: spec.id(),
                    minimal_id: minimal.id(),
                    verdict: v.to_string(),
                    reproducer,
                });
            }
        }
    }
    FuzzReport {
        cases: n,
        failures,
        coverage,
    }
}

/// Replay every reproducer in `dir`; returns the failing verdict lines.
///
/// # Errors
///
/// Any filesystem error listing or reading the directory (a missing
/// directory replays cleanly — there are no regressions yet).
pub fn replay_regressions(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut failures = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(failures),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        let spec = parse(&text)
            .ok()
            .and_then(|j| j.as_obj().and_then(|o| o.get("spec").cloned()))
            .and_then(|s| CaseSpec::from_json(&s).ok());
        let Some(spec) = spec else {
            failures.push(format!("{}: unparsable reproducer", path.display()));
            continue;
        };
        for v in run_oracles(&CaseContext::new(spec)) {
            if v.is_fail() {
                failures.push(format!("{}: {v}", path.display()));
            }
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn random_specs_cover_multiple_shapes_quickly() {
        let mut rng = Rng::new(1);
        let mut cov = Coverage::default();
        for _ in 0..64 {
            cov.record(&random_spec(&mut rng));
        }
        assert!(
            cov.exercised() >= 10,
            "64 draws exercised only {} cells",
            cov.exercised()
        );
        assert_eq!(Coverage::total(), 100);
    }

    #[test]
    fn seed_7_campaign_ids_are_pinned() {
        // Recorded before the workload axis was retired: the 200 case ids
        // of a seed-7 campaign, with the `-wlintegral` suffix stripped from
        // the 46 draws that used to drive the integral engine. Those slots
        // now run as window cases built from the knobs drawn for them;
        // every other id is exactly the window case the seed always drew.
        let mut rng = Rng::new(7);
        let ids: Vec<String> = (0..200).map(|_| random_spec(&mut rng).id()).collect();
        let mut h = sw_bitstream::Fnv64::new();
        for id in &ids {
            h.write(id.as_bytes());
            h.write(b"\n");
        }
        assert_eq!(h.finish(), 0x1fd2_1601_0dc4_f7f6);
        assert_eq!(
            ids[0],
            "18x4-checkerboard-s91184-n4-tap-legall-t3-fail-b100"
        );
        assert_eq!(
            ids[199],
            "51x8-gradient-h-s452388-n8-box-haar2-t6-stall-b25"
        );
    }

    #[test]
    fn shrink_reaches_a_fixpoint_on_a_passing_case() {
        // A passing case shrinks to itself: no candidate fails either.
        let mut rng = Rng::new(3);
        let mut spec = random_spec(&mut rng);
        spec.fault_seed = None;
        if !fails(&spec) {
            assert_eq!(shrink(spec), spec);
        }
    }

    #[test]
    fn small_fuzz_smoke_is_clean() {
        let dir = std::env::temp_dir().join(format!("sw-fuzz-smoke-{}", std::process::id()));
        let report = run_fuzz(12, 99, &dir);
        assert_eq!(report.cases, 12);
        assert!(
            report.failures.is_empty(),
            "fuzz found real failures: {:#?}",
            report.failures
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
