//! # tdess-core — the 3DESS shape-search system
//!
//! The primary contribution of the reproduced paper: a content-based
//! 3-D engineering shape search system. This crate ties the substrates
//! together into the three-tier architecture of Fig. 1:
//!
//! * **database** ([`db`]) — shape storage, feature extraction on
//!   insert, one R-tree per feature space, one-shot query processing
//!   (top-k and similarity-threshold, Eq. 4.3–4.4); the stored shapes
//!   sit in chunks that snapshots share ([`shapes`]);
//! * **multi-step search** ([`multistep`]) — §4.2's candidate
//!   retrieval + re-ranking strategy;
//! * **relevance feedback** ([`feedback`]) — query reconstruction and
//!   weight reconfiguration;
//! * **browsing** ([`browse`]) — per-feature clustering hierarchies
//!   for drill-down search;
//! * **persistence** ([`persist`]) — storage standing in for the
//!   paper's Oracle 8i layer, with atomic (temp-file + rename + dir
//!   fsync) saves; JSON for compat/debugging plus the [`snapshot`]
//!   binary format (`TDSS`: versioned, sectioned, checksummed) for
//!   10⁴–10⁵-shape databases, with format auto-detection on load;
//! * **little-endian codec** ([`le`]) — the bounds-checked field
//!   reader and writer under both binary formats, the `TDSS` snapshot
//!   and the network tier's wire payloads;
//! * **server tier** ([`server`]) — snapshot-isolated concurrent
//!   search handle (reads never block writes and vice versa), batched
//!   concurrent queries, query metrics, and parallel bulk indexing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browse;
pub mod db;
pub mod feedback;
pub mod le;
pub mod multistep;
pub mod persist;
pub mod server;
pub mod shapes;
pub mod similarity;
pub mod snapshot;

pub use browse::{BrowseCursor, BrowseTree};
pub use db::{DbError, Query, QueryMode, SearchHit, ShapeDatabase, ShapeId, StoredShape};
pub use feedback::{reconfigure_weights, reconstruct_query, Feedback, RocchioParams};
pub use multistep::{multi_step_search, multi_step_search_with_stats, MultiStepPlan};
pub use persist::{
    load, load_from_path, save, save_to_path, save_to_path_as, save_to_path_binary, sniff_format,
    FileOp, PersistError, SnapshotFormat,
};
pub use server::{bulk_insert, SearchServer, ServerMetrics};
pub use shapes::Shapes;
pub use similarity::{similarity, threshold_to_radius, weighted_distance, Weights};
pub use snapshot::{
    check_vector, checksum64, load_binary, load_binary_bytes, save_binary, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use tdess_cache::{CacheConfig, CacheStatsSnapshot, FeatureCache};
