//! # tdess-index — multidimensional access methods for 3DESS
//!
//! Implements §2.3 of the paper: an R-tree index over feature-space
//! points (packed and split along the axes where the points spread;
//! the paper's two query types, similarity-ball and best-first kNN
//! with MINDIST pruning; the exact diameter that normalizes
//! similarity) plus a linear-scan baseline, both instrumented with
//! node-access counters for the index-efficiency experiment. Tree
//! nodes keep their points, or their children's boxes, in one flat
//! array, and queries score four rows at a time without changing a
//! distance bit; the linear scan sums one row at a time and is the
//! oracle the property tests hold the tree to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linear;
pub mod rtree;
pub mod stats;

pub use linear::LinearScan;
pub use rtree::{RTree, RTreeConfig, TreeError};
pub use stats::QueryStats;
