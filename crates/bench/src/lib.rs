//! # tdess-bench — benchmark harness for 3DESS
//!
//! One binary per table/figure of the paper's evaluation (§4), plus
//! Criterion performance benches. Each `fig*` binary prints the
//! series/rows of the corresponding paper artifact; see EXPERIMENTS.md
//! for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
