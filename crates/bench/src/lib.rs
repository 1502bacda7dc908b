//! # tdess-bench — benchmark harness for 3DESS
//!
//! One binary per table/figure of the paper's evaluation (§4), plus
//! the `tab_*` measurement binaries. Each `fig*` binary prints the
//! series/rows of the corresponding paper artifact; see EXPERIMENTS.md
//! for the paper-vs-measured record. The `tab_*` binaries that write a
//! `BENCH_*.json` record share this crate's `--smoke` flag
//! ([`smoke`]), file writer ([`write_or_die`]) and record envelope
//! ([`write_bench_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

use tdess_dataset::{build_corpus, Corpus};
use tdess_eval::EvalContext;
use tdess_features::FeatureExtractor;

/// Corpus seed used by every experiment (fixed for reproducibility).
pub const CORPUS_SEED: u64 = 2004;

/// Voxel resolution used by every experiment.
pub const RESOLUTION: usize = 48;

/// Nearest-rank `q`-quantile of `samples` (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Whether the binary was run with `--smoke`: the same code path on
/// CI-sized inputs.
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Writes `contents` to `path`, or reports the error and exits with
/// status 1.
pub fn write_or_die(path: impl AsRef<Path>, contents: &str) {
    let path = path.as_ref();
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("[out] wrote {}", path.display());
}

/// Writes the machine-readable record of the `tab_<name>` binary
/// `bench` to `BENCH_<name>.json`, pretty-printed: the envelope
/// (`bench`, `smoke`, `available_parallelism`) followed by the pairs
/// of the `fields` object. Exits with status 1 on failure.
pub fn write_bench_json(bench: &str, smoke: bool, fields: serde_json::Value) {
    let serde_json::Value::Obj(fields) = fields else {
        eprintln!("error: {bench} results are not a JSON object");
        std::process::exit(1);
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = vec![
        (
            "bench".to_string(),
            serde_json::Value::Str(bench.to_string()),
        ),
        ("smoke".to_string(), serde_json::Value::Bool(smoke)),
        (
            "available_parallelism".to_string(),
            serde_json::Value::Int(parallelism as i128),
        ),
    ];
    record.extend(fields);
    match serde_json::to_string_pretty(&serde_json::Value::Obj(record)) {
        Ok(pretty) => write_or_die(
            format!("BENCH_{}.json", bench.trim_start_matches("tab_")),
            &pretty,
        ),
        Err(e) => {
            eprintln!("error: serializing {bench} results: {e}");
            std::process::exit(1);
        }
    }
}

/// Builds the standard 113-shape corpus.
pub fn standard_corpus() -> Corpus {
    build_corpus(CORPUS_SEED)
}

/// Builds the standard evaluation context (indexes the whole corpus;
/// takes a few seconds in release mode).
pub fn standard_context() -> EvalContext {
    let corpus = standard_corpus();
    eprintln!(
        "[setup] indexing {} shapes at voxel resolution {RESOLUTION} (seed {CORPUS_SEED})...",
        corpus.shapes.len()
    );
    let ctx = EvalContext::build(
        &corpus,
        FeatureExtractor {
            voxel_resolution: RESOLUTION,
            ..Default::default()
        },
    );
    eprintln!("[setup] done.");
    ctx
}
