//! Process-wide per-stage timing registry.
//!
//! Each pipeline/query [`Stage`] owns a static [`Histogram`]; a
//! [`StageTimer`] records into it on drop and, while a request trace
//! is collecting, closes the stage's span in it. Timers are no-ops
//! when the filter is [`Level::Off`] and no trace is active, so
//! `TDESS_LOG=off` removes the instrumentation cost entirely (see the
//! `tab_obs_overhead` bench).

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::{enabled, Level};
use std::time::Instant;

/// The instrumented stages of the extraction pipeline, the query path
/// and the write path.
///
/// Extraction stages follow the paper's flow (pose normalization →
/// voxelization → skeletonization → graph build → eigenvalues); query
/// stages cover feature extraction, index search, similarity
/// combination, and multi-step re-ranking; write stages cover an
/// insert or remove through the server, from deriving the next
/// snapshot to publishing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// PCA pose normalization of the input mesh.
    Normalize,
    /// Mesh → voxel-grid discretization.
    Voxelize,
    /// Iterative thinning of the voxel grid to a skeleton.
    Skeletonize,
    /// Skeleton voxels → attributed graph.
    GraphBuild,
    /// Laplacian eigenvalue signature of the skeleton graph.
    Eigen,
    /// Full feature extraction for a query mesh (encloses the five
    /// extraction stages above).
    QueryExtract,
    /// R*-tree (or scan) search in one feature space.
    IndexSearch,
    /// Distance → similarity conversion, weighting, sort and cut.
    SimilarityCombine,
    /// Multi-step strategy re-ranking passes after the first step.
    Rerank,
    /// Deriving the next database snapshot from the current one.
    SnapshotClone,
    /// Keeping each space's `dmax` the exact diameter after a write.
    DmaxUpdate,
    /// R-tree inserts or removes for one write.
    IndexUpdate,
    /// Swapping in the new snapshot and dropping the replaced one.
    Publish,
}

impl Stage {
    /// Every stage: pipeline, then query, then write stages.
    pub const ALL: [Stage; 13] = [
        Stage::Normalize,
        Stage::Voxelize,
        Stage::Skeletonize,
        Stage::GraphBuild,
        Stage::Eigen,
        Stage::QueryExtract,
        Stage::IndexSearch,
        Stage::SimilarityCombine,
        Stage::Rerank,
        Stage::SnapshotClone,
        Stage::DmaxUpdate,
        Stage::IndexUpdate,
        Stage::Publish,
    ];

    /// Whether this stage times part of a write rather than of an
    /// extraction or a query.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Stage::SnapshotClone | Stage::DmaxUpdate | Stage::IndexUpdate | Stage::Publish
        )
    }

    /// Stable snake_case name used in wire payloads and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Normalize => "normalize",
            Stage::Voxelize => "voxelize",
            Stage::Skeletonize => "skeletonize",
            Stage::GraphBuild => "graph_build",
            Stage::Eigen => "eigen",
            Stage::QueryExtract => "query_extract",
            Stage::IndexSearch => "index_search",
            Stage::SimilarityCombine => "similarity_combine",
            Stage::Rerank => "rerank",
            Stage::SnapshotClone => "snapshot_clone",
            Stage::DmaxUpdate => "dmax_update",
            Stage::IndexUpdate => "index_update",
            Stage::Publish => "publish",
        }
    }
}

static STAGE_HISTS: [Histogram; Stage::ALL.len()] = [
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
];

/// The process-wide histogram backing `stage`.
pub fn stage_histogram(stage: Stage) -> &'static Histogram {
    &STAGE_HISTS[stage as usize]
}

/// Snapshots every stage histogram, in [`Stage::ALL`] order.
pub fn stage_snapshots() -> Vec<(Stage, HistogramSnapshot)> {
    Stage::ALL
        .iter()
        .map(|&s| (s, stage_histogram(s).snapshot()))
        // hotpath: allow(hot-alloc) — the snapshot list is the returned artifact
        .collect()
}

/// Times one stage execution: started with [`StageTimer::start`], it
/// records the elapsed duration into the stage's histogram when
/// dropped and, when the thread is collecting a request trace, opens
/// a span in the tree (sharing the timer's single clock read). A
/// no-op (not even a clock read) when the level is `off` and no trace
/// is active.
#[derive(Debug)]
pub struct StageTimer {
    stage: Stage,
    start: Option<Instant>,
    /// Record into the stage histogram (level above off at start).
    hist: bool,
    /// Span id in the active request trace; 0 when not tracing.
    span: u32,
}

impl StageTimer {
    /// Starts timing `stage`.
    pub fn start(stage: Stage) -> StageTimer {
        // Any level except Off keeps histograms recording.
        let hist = enabled(Level::Error);
        let tracing = crate::span::trace_active();
        if !hist && !tracing {
            return StageTimer {
                stage,
                start: None,
                hist: false,
                span: 0,
            };
        }
        let now = Instant::now();
        let span = if tracing {
            crate::span::open_span(Stage::name(stage), now)
        } else {
            0
        };
        StageTimer {
            stage,
            start: Some(now),
            hist,
            span,
        }
    }

    /// Ends this timer and starts one for `next`, reading the clock
    /// exactly once at the boundary — for back-to-back stages (index
    /// search → similarity combine) where two full timers would pay
    /// two extra clock reads per query. The histogram record and span
    /// close/open are identical to drop-then-start.
    pub fn handoff(mut self, next: Stage) -> StageTimer {
        let Some(t0) = self.start.take() else {
            return StageTimer {
                stage: next,
                start: None,
                hist: false,
                span: 0,
            };
        };
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(t0);
        if self.hist {
            stage_histogram(self.stage).record(elapsed);
        }
        crate::span::close_span(self.span, elapsed);
        let span = if crate::span::trace_active() {
            crate::span::open_span(Stage::name(next), now)
        } else {
            0
        };
        StageTimer {
            stage: next,
            start: Some(now),
            hist: self.hist,
            span,
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let elapsed = t0.elapsed();
            if self.hist {
                stage_histogram(self.stage).record(elapsed);
            }
            crate::span::close_span(self.span, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()));
        }
    }

    #[test]
    fn stage_timer_contributes_spans_to_active_trace() {
        let guard = crate::span::begin_request("stage-span-test", "req", Instant::now());
        {
            let _outer = StageTimer::start(Stage::IndexSearch);
            let _inner = StageTimer::start(Stage::SimilarityCombine);
        }
        let t = guard.finish(false).expect("trace");
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].name, "index_search");
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[2].name, "similarity_combine");
        // Opened while index_search was still open → nested under it.
        assert_eq!(t.spans[2].parent, 2);
    }

    #[test]
    fn handoff_closes_one_span_and_opens_the_next_as_siblings() {
        let guard = crate::span::begin_request("handoff-test", "req", Instant::now());
        {
            let timer = StageTimer::start(Stage::IndexSearch);
            let _next = timer.handoff(Stage::SimilarityCombine);
        }
        let t = guard.finish(false).expect("trace");
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].name, "index_search");
        assert_eq!(t.spans[2].name, "similarity_combine");
        // The handoff closed the first span before opening the second,
        // so they are siblings under the root, not nested.
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[2].parent, 1);
        // And contiguous, to within microsecond truncation.
        let boundary = t.spans[1].start_us + t.spans[1].dur_us;
        assert!(t.spans[2].start_us.abs_diff(boundary) <= 1);
    }

    #[test]
    fn handoff_from_inert_timer_stays_inert() {
        // No trace active: with the level above off the timer is live
        // for histograms only; handing off must not open spans.
        let timer = StageTimer::start(Stage::IndexSearch);
        let next = timer.handoff(Stage::SimilarityCombine);
        assert_eq!(next.span, 0);
    }

    #[test]
    fn registry_indexing_matches_all_order() {
        for (i, &s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s as usize, i);
        }
        let snaps = stage_snapshots();
        assert_eq!(snaps.len(), Stage::ALL.len());
        for (i, (s, _)) in snaps.iter().enumerate() {
            assert_eq!(*s, Stage::ALL[i]);
        }
    }
}
