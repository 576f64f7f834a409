//! Golden-vector corpus: deterministic seeded images crossed with every
//! `(kernel × codec × threshold × overflow-policy)` cell, recorded into
//! checked-in `vectors/*.json` files.
//!
//! Each corpus image gets one vector file holding, per cell, the
//! output-image digest, the full `FrameStats`, the packed-stream byte
//! length, and the BRAM plan — or, for cells whose configuration is
//! invalid for that geometry, the exact typed-error message. `--bless`
//! regenerates the files after an intentional format change; `check`
//! recomputes everything and names the first divergent field.

use crate::case::{CaseSpec, ContentClass, KernelKind};
use crate::oracle::CaseContext;
use std::collections::BTreeMap;
use std::path::Path;
use sw_core::codec::LineCodecKind;
use sw_core::digest::image_digest;
use sw_core::memory_unit::OverflowPolicy;
use sw_core::planner::{plan, MgmtAccounting};
use sw_telemetry::json::{parse, write_escaped, Json};

/// Corpus schema version, bumped on any format change (then `--bless`).
pub const SCHEMA: u64 = 1;

/// Every case in the corpus grid, across all images.
pub fn corpus_specs() -> Vec<CaseSpec> {
    IMAGES.iter().flat_map(|img| img.cells()).collect()
}

/// Window size `N` every corpus image is judged against.
pub const CORPUS_WINDOW: usize = 8;

/// One deterministic corpus image.
#[derive(Debug, Clone, Copy)]
pub struct CorpusImage {
    /// File stem of the vector file (`vectors/<name>.json`).
    pub name: &'static str,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Content class.
    pub content: ContentClass,
    /// Content seed.
    pub seed: u64,
}

/// The corpus: every content class plus the ragged geometries the ISSUE
/// names (`W < N`, `H < N`, odd `W`), all deterministic.
pub const IMAGES: [CorpusImage; 10] = [
    CorpusImage {
        name: "gradient-h",
        width: 48,
        height: 32,
        content: ContentClass::GradientH,
        seed: 0,
    },
    CorpusImage {
        name: "gradient-v-odd",
        width: 33,
        height: 21,
        content: ContentClass::GradientV,
        seed: 0,
    },
    CorpusImage {
        name: "checkerboard",
        width: 48,
        height: 32,
        content: ContentClass::Checkerboard,
        seed: 0,
    },
    CorpusImage {
        name: "noise",
        width: 40,
        height: 24,
        content: ContentClass::Noise,
        seed: 7,
    },
    CorpusImage {
        name: "impulses",
        width: 48,
        height: 32,
        content: ContentClass::Impulses,
        seed: 11,
    },
    CorpusImage {
        name: "black",
        width: 24,
        height: 16,
        content: ContentClass::Black,
        seed: 0,
    },
    CorpusImage {
        name: "white",
        width: 24,
        height: 16,
        content: ContentClass::White,
        seed: 0,
    },
    CorpusImage {
        name: "narrow",
        width: 6,
        height: 16,
        content: ContentClass::GradientH,
        seed: 0,
    },
    CorpusImage {
        name: "short",
        width: 48,
        height: 6,
        content: ContentClass::Noise,
        seed: 13,
    },
    CorpusImage {
        name: "ragged",
        width: 27,
        height: 19,
        content: ContentClass::Noise,
        seed: 17,
    },
];

impl CorpusImage {
    /// Every `(kernel × codec × threshold × policy)` cell for this image.
    ///
    /// Thresholds: `{0, 4}` for lossy-capable codecs, `{0}` otherwise
    /// (non-zero `T` is rejected at config time for raw/locoi). Budgets:
    /// 100 % of the lossless plan under `Fail` (must fit), 50 % under
    /// `Stall`/`DegradeLossy` (must bind).
    pub fn cells(&self) -> Vec<CaseSpec> {
        let mut specs = Vec::new();
        for kernel in KernelKind::ALL {
            for codec in LineCodecKind::ALL {
                let thresholds: &[i16] = if codec.is_lossy_capable() {
                    &[0, 4]
                } else {
                    &[0]
                };
                for &threshold in thresholds {
                    for policy in [
                        None,
                        Some(OverflowPolicy::Fail),
                        Some(OverflowPolicy::Stall),
                        Some(OverflowPolicy::DegradeLossy),
                    ] {
                        let budget_pct = match policy {
                            Some(OverflowPolicy::Stall) | Some(OverflowPolicy::DegradeLossy) => 50,
                            _ => 100,
                        };
                        specs.push(CaseSpec {
                            window: CORPUS_WINDOW,
                            width: self.width,
                            height: self.height,
                            content: self.content,
                            content_seed: self.seed,
                            kernel,
                            codec,
                            threshold,
                            policy,
                            budget_pct,
                            fault_seed: None,
                        });
                    }
                }
            }
        }
        specs
    }
}

/// Compute one cell's golden record as a JSON object.
fn cell_record(ctx: &CaseContext) -> Json {
    let mut obj = BTreeMap::new();
    let run = ctx
        .spec
        .config()
        .and_then(|cfg| ctx.spec.memory_unit().map(|mu| (cfg, mu)))
        .and_then(|(cfg, mu)| {
            let mut arch = sw_core::arch::build_arch(&cfg)?;
            arch.set_memory_unit(mu);
            arch.process_frame(&ctx.image, ctx.spec.kernel.build(cfg.window).as_ref())
        });
    match run {
        Ok(out) => {
            obj.insert("status".into(), Json::Str("ok".into()));
            obj.insert(
                "digest".into(),
                Json::Int(i128::from(image_digest(&out.image))),
            );
            obj.insert(
                "packed_bytes".into(),
                Json::Int(i128::from(out.stats.payload_bits_total.div_ceil(8))),
            );
            for (name, value) in out.stats.fields() {
                obj.insert(name.into(), Json::Int(i128::from(value)));
            }
            let p = plan(
                ctx.spec.window,
                ctx.spec.width,
                out.stats.peak_payload_occupancy.max(1),
                MgmtAccounting::Structured,
            );
            obj.insert(
                "bram_rows_per_bram".into(),
                Json::Int(i128::from(p.rows_per_bram)),
            );
            obj.insert("bram_packed".into(), Json::Int(i128::from(p.packed_brams)));
            obj.insert("bram_nbits".into(), Json::Int(i128::from(p.nbits_brams)));
            obj.insert("bram_bitmap".into(), Json::Int(i128::from(p.bitmap_brams)));
            obj.insert("bram_fits".into(), Json::Bool(p.fits));
        }
        Err(e) => {
            obj.insert("status".into(), Json::Str("error".into()));
            obj.insert("error".into(), Json::Str(e.to_string()));
        }
    }
    Json::Obj(obj)
}

/// The full golden document for one corpus image.
fn image_document(img: &CorpusImage) -> Json {
    let mut cells = BTreeMap::new();
    for spec in img.cells() {
        let ctx = CaseContext::new(spec);
        cells.insert(spec.cell_key(), cell_record(&ctx));
    }
    let rendered = img.content.render(img.width, img.height, img.seed);
    let mut doc = BTreeMap::new();
    doc.insert("schema".into(), Json::Int(i128::from(SCHEMA)));
    doc.insert("image".into(), Json::Str(img.name.into()));
    doc.insert("content".into(), Json::Str(img.content.name().into()));
    doc.insert("seed".into(), Json::Int(i128::from(img.seed)));
    doc.insert("width".into(), Json::Int(img.width as i128));
    doc.insert("height".into(), Json::Int(img.height as i128));
    doc.insert("window".into(), Json::Int(CORPUS_WINDOW as i128));
    doc.insert(
        "image_digest".into(),
        Json::Int(i128::from(image_digest(&rendered))),
    );
    doc.insert("cells".into(), Json::Obj(cells));
    Json::Obj(doc)
}

/// Render a [`Json`] tree as pretty-printed JSON (stable key order — the
/// object map is a `BTreeMap` — so blessed files diff cleanly).
fn render(j: &Json, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) => out.push_str(&format!("{f}")),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(item, out, indent);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in map.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                write_escaped(out, k);
                out.push_str(": ");
                render(v, out, indent + 1);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serialize a golden document to its on-disk form.
pub fn render_document(j: &Json) -> String {
    let mut out = String::new();
    render(j, &mut out, 0);
    out.push('\n');
    out
}

/// Regenerate every golden vector file under `dir`. Returns the total
/// cell count written.
///
/// # Errors
///
/// Any filesystem error creating or writing the vector files.
pub fn bless(dir: &Path) -> std::io::Result<usize> {
    bless_images(dir, &IMAGES)
}

/// [`bless`] over an explicit image subset (the unit tests use a single
/// cheap image; the CLI always blesses the full corpus).
fn bless_images(dir: &Path, images: &[CorpusImage]) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut cells = 0;
    for img in images {
        let doc = image_document(img);
        if let Some(obj) = doc.as_obj() {
            if let Some(c) = obj.get("cells").and_then(Json::as_obj) {
                cells += c.len();
            }
        }
        std::fs::write(
            dir.join(format!("{}.json", img.name)),
            render_document(&doc),
        )?;
    }
    Ok(cells)
}

/// Result of checking the corpus against the blessed vectors.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Cells recomputed and compared.
    pub cells: usize,
    /// Human-readable mismatch descriptions, one per divergence, each
    /// naming the image, cell, and first divergent field.
    pub mismatches: Vec<String>,
}

impl CheckReport {
    /// True when every cell matched its golden record.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Structural JSON comparison naming the first divergent path.
fn diff_json(path: &str, golden: &Json, current: &Json, out: &mut Vec<String>) {
    match (golden, current) {
        (Json::Obj(g), Json::Obj(c)) => {
            for (k, gv) in g {
                match c.get(k) {
                    Some(cv) => diff_json(&format!("{path}/{k}"), gv, cv, out),
                    None => out.push(format!(
                        "{path}/{k}: in golden vector but no longer produced"
                    )),
                }
            }
            for k in c.keys() {
                if !g.contains_key(k) {
                    out.push(format!(
                        "{path}/{k}: produced but missing from golden vector"
                    ));
                }
            }
        }
        _ if golden == current => {}
        _ => out.push(format!(
            "{path}: golden {}, got {}",
            render_document(golden).trim(),
            render_document(current).trim()
        )),
    }
}

/// Recompute every corpus cell and compare against the blessed vectors in
/// `dir`.
///
/// # Errors
///
/// Any filesystem error reading the vector files (a *missing* file is a
/// mismatch, not an error).
pub fn check(dir: &Path) -> std::io::Result<CheckReport> {
    check_images(dir, &IMAGES)
}

/// [`check`] over an explicit image subset.
fn check_images(dir: &Path, images: &[CorpusImage]) -> std::io::Result<CheckReport> {
    let mut report = CheckReport::default();
    for img in images {
        let current = image_document(img);
        if let Some(c) = current
            .as_obj()
            .and_then(|o| o.get("cells"))
            .and_then(Json::as_obj)
        {
            report.cells += c.len();
        }
        let file = dir.join(format!("{}.json", img.name));
        let text = match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                report.mismatches.push(format!(
                    "{}: golden vector file missing (run --bless)",
                    img.name
                ));
                continue;
            }
            Err(e) => return Err(e),
        };
        let golden = match parse(&text) {
            Ok(j) => j,
            Err(e) => {
                report
                    .mismatches
                    .push(format!("{}: golden vector unparsable: {e:?}", img.name));
                continue;
            }
        };
        diff_json(img.name, &golden, &current, &mut report.mismatches);
    }
    Ok(report)
}

/// One golden digest loaded back from the blessed vectors: the case that
/// produced it and the recorded output digest.
///
/// This is the read-side of the corpus that external harnesses (the
/// served-vs-local conformance tests, the `swc load --verify` pass)
/// consume: they re-run the case through another execution path and
/// assert the digest is reproduced bit-for-bit.
#[derive(Debug, Clone)]
pub struct GoldenDigest {
    /// The corpus case that produced the record.
    pub spec: CaseSpec,
    /// The blessed output-image digest.
    pub digest: u64,
}

/// Extract `cells[key].digest` when the blessed record ran clean.
fn cell_digest(cells: &BTreeMap<String, Json>, key: &str) -> Option<u64> {
    let cell = cells.get(key)?.as_obj()?;
    if cell.get("status")?.as_str()? != "ok" {
        return None;
    }
    cell.get("digest")?.as_u64()
}

/// Parse one vector file into its `cells` map, or `None` when the file
/// is missing or unreadable as JSON (the caller decides whether that is
/// fatal; [`check`] already reports it as a mismatch).
fn load_cells(dir: &Path, file: &str) -> std::io::Result<Option<BTreeMap<String, Json>>> {
    let text = match std::fs::read_to_string(dir.join(file)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse(&text)
        .ok()
        .as_ref()
        .and_then(Json::as_obj)
        .and_then(|o| o.get("cells"))
        .and_then(Json::as_obj)
        .cloned())
}

/// Load every successfully-blessed digest from `dir`.
///
/// Cells blessed as typed errors (degenerate geometries) are skipped —
/// they have no digest to reproduce.
///
/// # Errors
///
/// Any filesystem error other than a missing vector file.
pub fn golden_window_digests(dir: &Path) -> std::io::Result<Vec<GoldenDigest>> {
    let mut out = Vec::new();
    for img in &IMAGES {
        let Some(cells) = load_cells(dir, &format!("{}.json", img.name))? else {
            continue;
        };
        for spec in img.cells() {
            if let Some(digest) = cell_digest(&cells, &spec.cell_key()) {
                out.push(GoldenDigest { spec, digest });
            }
        }
    }
    Ok(out)
}

/// The default checked-in vectors directory (`crates/conformance/vectors`).
pub fn default_vectors_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("vectors")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_the_expected_cell_matrix() {
        // 2 kernels × (3 lossy codecs × 2 thresholds + 2 lossless codecs)
        // × 4 policies = 64 cells per image.
        for img in &IMAGES {
            assert_eq!(img.cells().len(), 64, "{}", img.name);
        }
        let names: std::collections::BTreeSet<_> = IMAGES.iter().map(|i| i.name).collect();
        assert_eq!(names.len(), IMAGES.len(), "duplicate corpus image name");
    }

    #[test]
    fn documents_render_and_parse_round_trip() {
        // One small image end to end: serialize, reparse, structural equality.
        let img = &IMAGES[5]; // black 24×16 — cheapest cells
        let doc = image_document(img);
        let parsed = parse(&render_document(&doc)).unwrap();
        let mut diffs = Vec::new();
        diff_json(img.name, &parsed, &doc, &mut diffs);
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn check_names_the_divergent_field() {
        let dir = std::env::temp_dir().join(format!("sw-conformance-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A single cheap image keeps this a unit test; the CLI covers the
        // full corpus in release mode.
        let subset = [IMAGES[5]]; // black 24×16
        bless_images(&dir, &subset).unwrap();
        let clean = check_images(&dir, &subset).unwrap();
        assert!(clean.is_clean(), "{:?}", clean.mismatches);
        // Corrupt one field of the blessed file and expect the check to
        // name image, cell and field.
        let file = dir.join("black.json");
        let text = std::fs::read_to_string(&file).unwrap();
        let corrupted = text.replacen("\"cycles\": ", "\"cycles\": 9", 1);
        assert_ne!(corrupted, text, "fixture must actually corrupt a field");
        std::fs::write(&file, corrupted).unwrap();
        let dirty = check_images(&dir, &subset).unwrap();
        assert!(!dirty.is_clean());
        assert!(
            dirty
                .mismatches
                .iter()
                .any(|m| m.contains("black") && m.contains("cycles")),
            "{:?}",
            dirty.mismatches
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
