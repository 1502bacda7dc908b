//! # tdess-features — feature extraction for 3DESS
//!
//! Implements §3 of the paper: pose normalization (§3.1) and the four
//! shape feature vectors (§3.5) — moment invariants, geometric
//! parameters, principal moments, and skeletal-graph eigenvalues —
//! orchestrated by a pipeline that mirrors Fig. 2's query processing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod normalize;
pub mod pipeline;
pub mod vectors;

pub use baselines::{shape_distribution_d2, shell_histogram, D2Params, ShellParams};
pub use normalize::{normalize, NormalizeError, NormalizedModel};
pub use pipeline::{
    features_in_range, ExtractScratch, FeatureExtractor, FeatureSet, PipelineArtifacts,
    DEFAULT_SPECTRUM_DIM, MAX_FEATURE_MAGNITUDE,
};
pub use vectors::{
    geometric_params, higher_order_moments, moment_invariants, principal_moments, FeatureKind,
};
