//! Conformance harness for the modified sliding-window architectures.
//!
//! Three pillars, one correctness story (`swc conform --all`):
//!
//! 1. **Golden-vector corpus** ([`corpus`]) — deterministic seeded images
//!    run through every `(kernel × codec × threshold × overflow-policy)`
//!    cell, with output digests, [`sw_core::arch::FrameStats`], packed
//!    stream length and BRAM plan checked into `vectors/*.json` and
//!    regenerated via `--bless`.
//! 2. **Differential oracle engine** ([`oracle`]) — pairs of datapaths
//!    that must agree (traditional vs compressed, functional vs RTL,
//!    sequential vs sharded) plus analytic invariants (lossy MSE bound,
//!    stats consistency), each returning a structured [`Verdict`] that
//!    names the first divergent pixel, row or field.
//! 3. **Coverage-guided fuzzing** ([`fuzz`]) — mutates dimensions,
//!    content, thresholds, budgets and fault seeds, tracks exercised
//!    `(codec × policy × shape-class)` cells, and shrinks failures into
//!    minimal reproducers under `vectors/regressions/`.
//!
//! The oracle battery additionally pins the bit-sliced hot path: on every
//! case the `HotPathEquivalence` oracle reruns the datapath on the scalar
//! reference kernels (`sw-core`'s `oracle` feature) and demands
//! bit-identical outputs and stats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod fuzz;
pub mod oracle;

pub use case::{CaseSpec, ContentClass, KernelKind, ShapeClass};
pub use corpus::{default_vectors_dir, golden_window_digests, CheckReport, GoldenDigest};
pub use fuzz::{replay_regressions, run_fuzz, Coverage, FuzzReport};
pub use oracle::{all_oracles, run_oracles, CaseContext, Divergence, Outcome, Verdict};

use std::path::Path;

/// Summary of a full conformance run (`swc conform --all`).
#[derive(Debug)]
pub struct RunSummary {
    /// Golden cells compared against the checked-in corpus.
    pub corpus_cells: usize,
    /// Golden-vector mismatches (digest drift, schema drift, missing files).
    pub corpus_mismatches: Vec<String>,
    /// Oracle verdicts that failed across the corpus case grid.
    pub oracle_failures: Vec<String>,
    /// Oracle verdicts issued in total (pass + skip + fail).
    pub oracle_verdicts: usize,
    /// Regression reproducers that failed on replay.
    pub regression_failures: Vec<String>,
    /// `(codec × policy × shape)` coverage over the corpus grid.
    pub coverage: Coverage,
}

impl RunSummary {
    /// True when every pillar is clean.
    pub fn is_clean(&self) -> bool {
        self.corpus_mismatches.is_empty()
            && self.oracle_failures.is_empty()
            && self.regression_failures.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "corpus: {} golden cells, {} mismatches\n",
            self.corpus_cells,
            self.corpus_mismatches.len()
        ));
        for m in &self.corpus_mismatches {
            out.push_str(&format!("  MISMATCH {m}\n"));
        }
        out.push_str(&format!(
            "oracles: {} verdicts, {} failures\n",
            self.oracle_verdicts,
            self.oracle_failures.len()
        ));
        for f in &self.oracle_failures {
            out.push_str(&format!("  {f}\n"));
        }
        out.push_str(&format!(
            "regressions: {} replay failures\n",
            self.regression_failures.len()
        ));
        for f in &self.regression_failures {
            out.push_str(&format!("  {f}\n"));
        }
        out.push_str(&self.coverage.summary());
        out.push('\n');
        out.push_str(if self.is_clean() {
            "conformance: CLEAN\n"
        } else {
            "conformance: FAILED\n"
        });
        out
    }
}

/// Run the full conformance battery against the corpus in `vectors_dir`.
///
/// Checks golden vectors, runs every oracle over every corpus case, and
/// replays shrunk fuzz reproducers from `vectors_dir/regressions`.
///
/// # Errors
///
/// Filesystem errors reading the vector or regression directories.
pub fn run_all(vectors_dir: &Path) -> std::io::Result<RunSummary> {
    let report = corpus::check(vectors_dir)?;
    let mut oracle_failures = Vec::new();
    let mut oracle_verdicts = 0usize;
    let mut coverage = Coverage::default();
    for spec in corpus::corpus_specs() {
        coverage.record(&spec);
        let ctx = CaseContext::new(spec);
        for v in run_oracles(&ctx) {
            oracle_verdicts += 1;
            if v.is_fail() {
                oracle_failures.push(v.to_string());
            }
        }
    }
    let regression_failures = replay_regressions(&vectors_dir.join("regressions"))?;
    Ok(RunSummary {
        corpus_cells: report.cells,
        corpus_mismatches: report.mismatches,
        oracle_failures,
        oracle_verdicts,
        regression_failures,
        coverage,
    })
}
