//! # tdess-index — multidimensional access methods for 3DESS
//!
//! Implements §2.3 of the paper: an R-tree index over feature-space
//! points (packed and split along the axes where the points spread;
//! the paper's two query types, similarity-ball and best-first kNN
//! with MINDIST pruning; the exact diameter that normalizes
//! similarity) plus a linear-scan baseline, both instrumented with
//! node-access counters for the index-efficiency experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linear;
pub mod rect;
pub mod rtree;
pub mod stats;

pub use linear::LinearScan;
pub use rect::Rect;
pub use rtree::{RTree, RTreeConfig, TreeError};
pub use stats::QueryStats;
