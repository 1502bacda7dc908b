//! The SERVER tier (§2.2): snapshot-isolated concurrent search, query
//! metrics, and parallel bulk indexing.
//!
//! The paper's server layer handles "computation-intensive tasks" —
//! chiefly feature extraction — for many interactive clients. A naive
//! reader-writer lock around the database makes one slow query block
//! every insert (and, under fair locking, queued writers then block
//! all subsequent readers). This module instead keeps the database
//! behind an atomically swappable snapshot:
//!
//! * [`SearchServer`] — a cloneable handle whose readers clone an
//!   `Arc<ShapeDatabase>` in a critical section of a few instructions
//!   and then run *entirely lock-free*: feature extraction, one-shot
//!   search, and multi-step search all execute against an immutable
//!   snapshot. Writers serialize on a dedicated mutex, derive the next
//!   snapshot from the current one, apply the write to it, and
//!   publish it with a pointer swap — a search in flight never delays
//!   an insert, and an insert never delays a search. Deriving shares
//!   structure (see [`ShapeDatabase`]'s "Cloning"): it copies one
//!   pointer per chunk of a few hundred shapes, and the write then
//!   copies only the chunk it changes and the R-tree nodes on the
//!   paths it changes — never a mesh, a feature vector or an untouched
//!   node. `dmax` is kept exact by tree queries, so a write costs what
//!   it changes rather than the size of the database, except for a
//!   remove of a point that spans a diameter, which recomputes that
//!   space's diameter. The stages `snapshot_clone`, `dmax_update`,
//!   `index_update` and `publish` time each write. The replaced
//!   snapshot is released after the swap, outside the lock readers
//!   take;
//! * [`ServerMetrics`] — queries served, aggregated index-traversal
//!   counters and the snapshot-swap count, kept in lock-free counters
//!   and read via [`SearchServer::metrics`]. The server does not time
//!   queries: a front end times each request once, at its root span
//!   (`tdess-net` keeps one latency histogram per request kind), and
//!   the `tdess-obs` stage histograms time the work inside;
//! * [`bulk_insert`] — feature extraction fanned out across worker
//!   threads (extraction dominates insert cost by orders of
//!   magnitude), with the index updates applied in one batch so ids
//!   remain deterministic in input order;
//! * [`SearchServer::with_cache`] — an optional content-addressed
//!   extraction cache (`tdess-cache`): repeat query meshes skip the
//!   extraction pipeline entirely, and N concurrent identical queries
//!   coalesce into one extraction. Counters via
//!   [`SearchServer::cache_stats`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use tdess_cache::{CacheConfig, CacheKey, CacheOutcome, CacheStatsSnapshot, FeatureCache};
use tdess_features::{normalize, FeatureSet};
use tdess_geom::TriMesh;
use tdess_index::QueryStats;
use tdess_obs::{Counter, Stage, StageTimer, TagValue};

use crate::db::{DbError, Query, SearchHit, ShapeDatabase, ShapeId};
use crate::multistep::{multi_step_search_with_stats, MultiStepPlan};

/// A point-in-time view of the server's query counters. Each counter
/// is read on its own, so a view taken while queries run may count a
/// query in `queries_served` whose index work it does not yet include.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// Total queries served (one-shot + multi-step).
    pub queries_served: u64,
    /// Index traversal counters aggregated over every query served.
    pub index_stats: QueryStats,
    /// How many times a writer published a new snapshot.
    pub snapshot_swaps: u64,
}

/// The lock-free counters behind [`ServerMetrics`].
#[derive(Debug, Default)]
struct Counters {
    queries_served: Counter,
    nodes_visited: Counter,
    leaves_visited: Counter,
    entries_checked: Counter,
    snapshot_swaps: Counter,
}

impl Counters {
    /// Counts one served query and the index work it did.
    fn count_query(&self, stats: &QueryStats) {
        self.queries_served.add(1);
        self.nodes_visited.add(stats.nodes_visited as u64);
        self.leaves_visited.add(stats.leaves_visited as u64);
        self.entries_checked.add(stats.entries_checked as u64);
    }
}

/// Shared server state.
struct ServerInner {
    /// The current immutable snapshot. The lock's critical sections
    /// only clone or swap the `Arc` — never compute under it.
    snapshot: RwLock<Arc<ShapeDatabase>>,
    /// Serializes writers (clone → mutate → publish).
    writer: Mutex<()>,
    counters: Counters,
    /// Content-addressed extraction cache shared by every handle
    /// clone, or `None` when caching is disabled.
    cache: Option<Arc<FeatureCache>>,
}

/// A thread-safe, cloneable handle to a [`ShapeDatabase`] with
/// snapshot isolation: reads never block writes and writes never
/// block reads.
#[derive(Clone)]
pub struct SearchServer {
    inner: Arc<ServerInner>,
}

impl SearchServer {
    /// Wraps a database in a server handle with extraction caching
    /// disabled (every query mesh is extracted from scratch).
    pub fn new(db: ShapeDatabase) -> SearchServer {
        Self::build(db, None)
    }

    /// Wraps a database in a server handle with a content-addressed
    /// extraction cache: repeat query meshes (byte-identical re-sends
    /// *and* pose/scale-transformed copies of the same part) skip the
    /// extraction pipeline, and concurrent identical queries coalesce
    /// into a single extraction.
    pub fn with_cache(db: ShapeDatabase, config: CacheConfig) -> SearchServer {
        Self::build(db, Some(Arc::new(FeatureCache::with_config(config))))
    }

    fn build(db: ShapeDatabase, cache: Option<Arc<FeatureCache>>) -> SearchServer {
        SearchServer {
            inner: Arc::new(ServerInner {
                snapshot: RwLock::new(Arc::new(db)),
                writer: Mutex::new(()),
                counters: Counters::default(),
                cache,
            }),
        }
    }

    /// A point-in-time reading of the extraction-cache counters, or
    /// `None` when the server was built without a cache.
    pub fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.inner.cache.as_ref().map(|c| c.stats_snapshot())
    }

    /// The current database snapshot. The read-lock critical section
    /// only clones the `Arc`; everything the caller does with the
    /// returned snapshot runs lock-free against immutable data and is
    /// unaffected by (and invisible to) concurrent writers.
    pub fn snapshot(&self) -> Arc<ShapeDatabase> {
        // hotpath: allow(hot-alloc) — snapshot semantics require an owned copy
        // hotpath: allow(hot-block) — the read lock is held for one `Arc` clone; writers hold it for one pointer swap
        self.inner.snapshot.read().clone()
    }

    /// Publishes a new snapshot (callers hold the writer mutex). The
    /// replaced snapshot is dropped on return, after the swap's lock
    /// is released, so readers never wait while whatever it alone
    /// owned is freed; the `publish` stage times the drop too.
    fn publish(&self, db: ShapeDatabase) {
        let _stage = StageTimer::start(Stage::Publish);
        let next = Arc::new(db);
        // hotpath: allow(hot-block) — one pointer swap under the writer mutex; the old snapshot drops after the lock is released
        let _previous = std::mem::replace(&mut *self.inner.snapshot.write(), next);
        self.inner.counters.snapshot_swaps.add(1);
    }

    /// The write path: under the writer mutex, derive the next
    /// snapshot from the current one, `apply` the write to it, and
    /// publish it if `apply` succeeds.
    fn derive_and_publish<R>(
        &self,
        apply: impl FnOnce(&mut ShapeDatabase) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        // hotpath: allow(hot-block) — write-lock guards the single-writer database update
        let _writer = self.inner.writer.lock();
        let mut db = {
            let _stage = StageTimer::start(Stage::SnapshotClone);
            // hotpath: allow(hot-alloc) — derives the next snapshot: copies one pointer per shape chunk, shares every shape and tree node
            (*self.snapshot()).clone()
        };
        let out = apply(&mut db)?;
        self.publish(db);
        Ok(out)
    }

    /// Extracts features for a query mesh, timing the whole extraction
    /// (including any cache interaction) under the `query_extract`
    /// stage.
    ///
    /// With a cache, the mesh is normalized once — both to derive the
    /// content key and to feed the pipeline on a miss — and the
    /// extraction closure runs under the cache's singleflight, so N
    /// concurrent identical queries cost one extraction. Cached
    /// results are bit-identical to the uncached path
    /// ([`FeatureExtractor::extract_from_normalized`] shares the exact
    /// pipeline with [`FeatureExtractor::extract`]).
    ///
    /// [`FeatureExtractor::extract`]: tdess_features::FeatureExtractor::extract
    /// [`FeatureExtractor::extract_from_normalized`]: tdess_features::FeatureExtractor::extract_from_normalized
    fn extract_timed(
        &self,
        snap: &ShapeDatabase,
        mesh: &TriMesh,
    ) -> Result<Arc<FeatureSet>, DbError> {
        let _stage = StageTimer::start(Stage::QueryExtract);
        match &self.inner.cache {
            Some(cache) => {
                let normalized = normalize(mesh).map_err(DbError::Extraction)?;
                let extractor = snap.extractor();
                let key = CacheKey::derive(&normalized, extractor);
                // When this request is collecting a span tree, the
                // innermost span here is `query_extract`; the cache
                // publishes it to coalesced followers as the address
                // of the one extraction that actually ran.
                let link = tdess_obs::current_span_link();
                let (features, outcome) = cache
                    .get_or_extract(key, link, || {
                        extractor.extract_from_normalized(mesh, &normalized)
                    })
                    .map_err(DbError::Extraction)?;
                annotate_cache_outcome(&outcome);
                Ok(features)
            }
            None => snap
                .extractor()
                .extract(mesh)
                .map(Arc::new)
                .map_err(DbError::Extraction),
        }
    }

    /// Runs a one-shot search against the current snapshot. No lock
    /// is held during extraction or search.
    pub fn search_mesh(&self, mesh: &TriMesh, query: &Query) -> Result<Vec<SearchHit>, DbError> {
        self.search_mesh_on(&self.snapshot(), mesh, query)
    }

    /// [`SearchServer::search_mesh`] against a snapshot the caller
    /// took with [`SearchServer::snapshot`] and keeps, so the hits can
    /// be resolved (names, meshes) against the database they came
    /// from, whatever writers publish meanwhile.
    pub fn search_mesh_on(
        &self,
        snap: &ShapeDatabase,
        mesh: &TriMesh,
        query: &Query,
    ) -> Result<Vec<SearchHit>, DbError> {
        let features = self.extract_timed(snap, mesh)?;
        let mut stats = QueryStats::default();
        let hits = snap.search_with_stats(&features, query, &mut stats);
        self.inner.counters.count_query(&stats);
        Ok(hits)
    }

    /// Runs a one-shot search with already-extracted query features
    /// against the current snapshot.
    pub fn search_features(&self, features: &FeatureSet, query: &Query) -> Vec<SearchHit> {
        self.search_features_on(&self.snapshot(), features, query)
    }

    /// [`SearchServer::search_features`] against a snapshot the caller
    /// holds (see [`SearchServer::search_mesh_on`]).
    pub fn search_features_on(
        &self,
        snap: &ShapeDatabase,
        features: &FeatureSet,
        query: &Query,
    ) -> Vec<SearchHit> {
        let mut stats = QueryStats::default();
        let hits = snap.search_with_stats(features, query, &mut stats);
        self.inner.counters.count_query(&stats);
        hits
    }

    /// Runs a multi-step search against the current snapshot. No lock
    /// is held during extraction or search.
    pub fn multi_step_mesh(
        &self,
        mesh: &TriMesh,
        plan: &MultiStepPlan,
    ) -> Result<Vec<SearchHit>, DbError> {
        self.multi_step_mesh_on(&self.snapshot(), mesh, plan)
    }

    /// [`SearchServer::multi_step_mesh`] against a snapshot the caller
    /// holds (see [`SearchServer::search_mesh_on`]).
    pub fn multi_step_mesh_on(
        &self,
        snap: &ShapeDatabase,
        mesh: &TriMesh,
        plan: &MultiStepPlan,
    ) -> Result<Vec<SearchHit>, DbError> {
        let features = self.extract_timed(snap, mesh)?;
        let mut stats = QueryStats::default();
        let hits = multi_step_search_with_stats(snap, &features, plan, &mut stats);
        self.inner.counters.count_query(&stats);
        Ok(hits)
    }

    /// Inserts a shape. Extraction runs before the writer lock is
    /// taken; the writer then derives the next snapshot from the
    /// current one, applies the insert, and publishes it with a
    /// pointer swap. In-flight searches keep their old snapshot.
    pub fn insert(&self, name: impl Into<String>, mesh: TriMesh) -> Result<ShapeId, DbError> {
        let extractor = *self.snapshot().extractor();
        let features = extractor.extract(&mesh).map_err(DbError::Extraction)?;
        self.derive_and_publish(|db| Ok(db.insert_precomputed(name, mesh, features)))
    }

    /// Removes a shape via the same derive-and-publish write path. A
    /// failed remove publishes nothing.
    pub fn remove(&self, id: ShapeId) -> Result<(), DbError> {
        self.derive_and_publish(|db| db.remove(id).map(|_| ()))
    }

    /// Number of stored shapes in the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the current snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Name of a shape in the current snapshot, if it exists.
    pub fn name_of(&self, id: ShapeId) -> Option<String> {
        self.snapshot().get(id).map(|s| s.name.clone())
    }

    /// Runs `f` against the current snapshot. No lock is held while
    /// `f` runs; everything `f` observes comes from one consistent
    /// snapshot, however long it takes.
    pub fn with_db<R>(&self, f: impl FnOnce(&ShapeDatabase) -> R) -> R {
        f(&self.snapshot())
    }

    /// A point-in-time reading of the server's query counters.
    pub fn metrics(&self) -> ServerMetrics {
        let c = &self.inner.counters;
        ServerMetrics {
            queries_served: c.queries_served.get(),
            index_stats: QueryStats {
                nodes_visited: c.nodes_visited.get() as usize,
                leaves_visited: c.leaves_visited.get() as usize,
                entries_checked: c.entries_checked.get() as usize,
            },
            snapshot_swaps: c.snapshot_swaps.get(),
        }
    }
}

/// Inserts many shapes, extracting features on `threads` worker
/// threads. Returns ids in input order. Extraction failures abort with
/// the first error encountered (in input order) and leave the database
/// untouched. Index updates are applied in one batch
/// ([`ShapeDatabase::insert_batch_precomputed`]), so a batch that
/// rebuilds the trees takes each space's `dmax` from its tree instead
/// of one full scan per inserted shape.
pub fn bulk_insert(
    db: &mut ShapeDatabase,
    shapes: Vec<(String, TriMesh)>,
    threads: usize,
) -> Result<Vec<ShapeId>, DbError> {
    let threads = threads.max(1);
    let extractor = *db.extractor();
    let n = shapes.len();
    let mut features = Vec::with_capacity(n);

    if threads == 1 || n <= 1 {
        for (_, mesh) in &shapes {
            features.push(extractor.extract(mesh).map_err(DbError::Extraction)?);
        }
    } else {
        let next = AtomicUsize::new(0);
        let results: Vec<RwLock<Option<Result<FeatureSet, DbError>>>> =
            (0..n).map(|_| RwLock::new(None)).collect();
        crossbeam::scope(|scope| {
            for _ in 0..threads.min(n) {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed); // audit: ordering(slot-claim ticket; results publish via the RwLock slots and the scope join barrier)
                    if i >= n {
                        break;
                    }
                    let out = extractor.extract(&shapes[i].1).map_err(DbError::Extraction);
                    *results[i].write() = Some(out);
                });
            }
        })
        .map_err(|_| DbError::WorkerFailure("extraction worker panicked"))?;
        for cell in results {
            let res = cell
                .into_inner()
                .ok_or(DbError::WorkerFailure("extraction result slot left empty"))?;
            features.push(res?);
        }
    }

    let items = shapes
        .into_iter()
        .zip(features)
        .map(|((name, mesh), fs)| (name, mesh, fs))
        .collect();
    Ok(db.insert_batch_precomputed(items))
}

/// Annotates the current span (the live `query_extract` span) with the
/// cache outcome. A coalesced follower additionally records the
/// *leader's* span address — linking, not duplicating, the one
/// extraction that ran into this request's trace. No-ops when the
/// request is not collecting spans.
fn annotate_cache_outcome(outcome: &CacheOutcome) {
    match outcome {
        CacheOutcome::Hit => tdess_obs::annotate("cache", TagValue::Str("hit")),
        CacheOutcome::Miss => tdess_obs::annotate("cache", TagValue::Str("miss")),
        CacheOutcome::Coalesced { leader } => {
            tdess_obs::annotate("cache", TagValue::Str("coalesced"));
            if let Some((trace_id, span)) = leader {
                tdess_obs::annotate("leader_trace", TagValue::Shared(Arc::clone(trace_id)));
                tdess_obs::annotate("leader_span", TagValue::U64(u64::from(*span)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_features::{FeatureExtractor, FeatureKind};
    use tdess_geom::{primitives, Vec3};

    fn meshes(n: usize) -> Vec<(String, TriMesh)> {
        (0..n)
            .map(|i| {
                let s = 1.0 + 0.1 * i as f64;
                (
                    format!("box-{i}"),
                    primitives::box_mesh(Vec3::new(2.0 * s, 1.0 * s, 0.5 * s)),
                )
            })
            .collect()
    }

    fn extractor() -> FeatureExtractor {
        FeatureExtractor {
            voxel_resolution: 16,
            ..Default::default()
        }
    }

    #[test]
    fn bulk_insert_matches_sequential_insert() {
        let shapes = meshes(6);
        let mut seq = ShapeDatabase::new(extractor());
        for (name, mesh) in shapes.clone() {
            seq.insert(name, mesh).unwrap();
        }
        let mut par = ShapeDatabase::new(extractor());
        let ids = bulk_insert(&mut par, shapes, 4).unwrap();
        assert_eq!(ids, (1..=6).collect::<Vec<_>>());
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.shapes().iter().zip(seq.shapes()) {
            assert_eq!(a.name, b.name);
            for kind in FeatureKind::ALL {
                assert_eq!(a.features.get(kind), b.features.get(kind), "{}", a.name);
            }
        }
        for kind in FeatureKind::ALL {
            assert!((par.dmax(kind) - seq.dmax(kind)).abs() < 1e-12);
        }
    }

    #[test]
    fn bulk_insert_propagates_extraction_errors() {
        let mut shapes = meshes(3);
        shapes.insert(
            1,
            (
                "degenerate".into(),
                TriMesh::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]),
            ),
        );
        let mut db = ShapeDatabase::new(extractor());
        assert!(bulk_insert(&mut db, shapes, 2).is_err());
        assert!(db.is_empty(), "failed bulk insert must not partially apply");
    }

    #[test]
    fn server_concurrent_searches() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(5), 2).unwrap();
        let server = SearchServer::new(db);
        let query_mesh = primitives::box_mesh(Vec3::new(2.05, 1.0, 0.5));

        crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                let server = server.clone();
                let mesh = query_mesh.clone();
                handles.push(scope.spawn(move |_| {
                    server
                        .search_mesh(&mesh, &Query::top_k(FeatureKind::PrincipalMoments, 3))
                        .unwrap()
                }));
            }
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Every thread sees the same answer.
            for r in &results[1..] {
                assert_eq!(r.len(), results[0].len());
                for (a, b) in r.iter().zip(&results[0]) {
                    assert_eq!(a.id, b.id);
                }
            }
        })
        .unwrap();
        assert_eq!(server.metrics().queries_served, 8);
    }

    #[test]
    fn server_insert_visible_to_searches() {
        let server = SearchServer::new(ShapeDatabase::new(extractor()));
        assert!(server.is_empty());
        let id = server
            .insert("ring", primitives::torus(1.5, 0.4, 16, 8))
            .unwrap();
        assert_eq!(server.len(), 1);
        assert_eq!(server.name_of(id).as_deref(), Some("ring"));
        server.remove(id).unwrap();
        assert!(server.is_empty());
        assert!(server.remove(id).is_err());
        // Two successful writes published two snapshots; the failed
        // remove published none.
        assert_eq!(server.metrics().snapshot_swaps, 2);
    }

    #[test]
    fn server_multi_step() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(6), 2).unwrap();
        let server = SearchServer::new(db);
        let hits = server
            .multi_step_mesh(
                &primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)),
                &MultiStepPlan {
                    steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
                    candidates: 5,
                    presented: 3,
                },
            )
            .unwrap();
        assert_eq!(hits.len(), 3);
        let m = server.metrics();
        assert_eq!(m.queries_served, 1);
        assert!(m.index_stats.nodes_visited > 0);
    }

    #[test]
    fn snapshot_unaffected_by_later_writes() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(3), 2).unwrap();
        let server = SearchServer::new(db);
        let before = server.snapshot();
        server
            .insert("late", primitives::uv_sphere(1.0, 12, 6))
            .unwrap();
        assert_eq!(before.len(), 3, "old snapshot must not see the insert");
        assert_eq!(server.len(), 4);
    }

    #[test]
    fn metrics_latency_and_index_stats_accumulate() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(4), 2).unwrap();
        let server = SearchServer::new(db);
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let query = Query::top_k(FeatureKind::PrincipalMoments, 2);
        for _ in 0..3 {
            server.search_mesh(&mesh, &query).unwrap();
        }
        // Every query ran on the same snapshot with the same features,
        // so the totals are exactly three times one query's work.
        let features = extractor().extract(&mesh).unwrap();
        let mut one = QueryStats::default();
        server
            .snapshot()
            .search_with_stats(&features, &query, &mut one);
        assert!(one.nodes_visited > 0 && one.entries_checked > 0);
        let m = server.metrics();
        assert_eq!(m.queries_served, 3);
        assert_eq!(m.index_stats.nodes_visited, 3 * one.nodes_visited);
        assert_eq!(m.index_stats.leaves_visited, 3 * one.leaves_visited);
        assert_eq!(m.index_stats.entries_checked, 3 * one.entries_checked);
        assert_eq!(m.snapshot_swaps, 0);
    }

    #[test]
    fn cache_stats_absent_without_cache() {
        let server = SearchServer::new(ShapeDatabase::new(extractor()));
        assert!(server.cache_stats().is_none());
    }

    #[test]
    fn cached_results_bit_identical_to_uncached() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(6), 2).unwrap();
        let plain = SearchServer::new(db.clone());
        let cached = SearchServer::with_cache(db, CacheConfig::default());
        let query = Query::top_k(FeatureKind::MomentInvariants, 4);
        let plan = MultiStepPlan {
            steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
            candidates: 5,
            presented: 3,
        };

        for (_, mesh) in meshes(4) {
            let want = plain.search_mesh(&mesh, &query).unwrap();
            // Cold (miss) and warm (hit) answers must both match the
            // uncached server exactly — same ids, same f64 distances.
            let cold = cached.search_mesh(&mesh, &query).unwrap();
            let warm = cached.search_mesh(&mesh, &query).unwrap();
            assert_eq!(want, cold);
            assert_eq!(want, warm);

            let want_ms = plain.multi_step_mesh(&mesh, &plan).unwrap();
            let warm_ms = cached.multi_step_mesh(&mesh, &plan).unwrap();
            assert_eq!(want_ms, warm_ms);
        }

        let s = cached.cache_stats().unwrap();
        assert_eq!(s.misses, 4, "one extraction per distinct query mesh");
        assert_eq!(s.hits, 8, "repeat + multi-step queries all hit: {s:?}");
        assert_eq!(s.entries, 4);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn concurrent_identical_queries_extract_once() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(5), 2).unwrap();
        let server = SearchServer::with_cache(db, CacheConfig::default());
        let mesh = primitives::box_mesh(Vec3::new(2.05, 1.0, 0.5));
        let query = Query::top_k(FeatureKind::PrincipalMoments, 3);

        crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                let server = server.clone();
                let mesh = mesh.clone();
                let query = &query;
                handles.push(scope.spawn(move |_| server.search_mesh(&mesh, query).unwrap()));
            }
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results[1..] {
                assert_eq!(r, &results[0], "coalesced queries agree exactly");
            }
        })
        .unwrap();

        let s = server.cache_stats().unwrap();
        assert_eq!(s.misses, 1, "the herd coalesces into one extraction");
        assert_eq!(
            s.hits + s.coalesced_waits,
            7,
            "every other query either hit or waited on the flight: {s:?}"
        );
        assert_eq!(s.entries, 1);
    }

    /// Sample counts of the query stages (`write == false`) or the
    /// write stages, in [`Stage::ALL`] order.
    fn stage_counts(write: bool) -> Vec<(Stage, u64)> {
        Stage::ALL
            .into_iter()
            .filter(|s| s.is_write() == write)
            .map(|s| (s, tdess_obs::stage_histogram(s).snapshot().count()))
            .collect()
    }

    /// Regression for the `tab_obs_overhead` blind spot where the
    /// query loop used pre-extracted features and `query_extract` (and
    /// every extraction stage under it) recorded zero samples: a mesh
    /// query must bump *every* query stage it passes through. Deltas,
    /// not absolute counts — the stage histograms are process-wide and
    /// other tests in this binary record into them concurrently.
    #[test]
    fn every_query_stage_hit_by_a_mesh_query_records_samples() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(4), 2).unwrap();
        let server = SearchServer::new(db);
        let before = stage_counts(false);

        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        server
            .search_mesh(&mesh, &Query::top_k(FeatureKind::PrincipalMoments, 3))
            .unwrap();
        // Two steps so the rerank stage runs too.
        server
            .multi_step_mesh(
                &mesh,
                &MultiStepPlan {
                    steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
                    candidates: 4,
                    presented: 2,
                },
            )
            .unwrap();

        for ((s, before), (_, after)) in before.into_iter().zip(stage_counts(false)) {
            assert!(
                after > before,
                "stage {} recorded no samples for a mesh query",
                Stage::name(s)
            );
        }
    }

    /// An insert and a remove through the server must bump every write
    /// stage: deriving the snapshot, `dmax`, the trees and publishing.
    #[test]
    fn every_write_stage_hit_by_an_insert_and_a_remove_records_samples() {
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(4), 2).unwrap();
        let server = SearchServer::new(db);
        let before = stage_counts(true);
        assert_eq!(before.len(), 4);

        let id = server
            .insert("ring", primitives::torus(1.5, 0.4, 16, 8))
            .unwrap();
        server.remove(id).unwrap();

        for ((s, before), (_, after)) in before.into_iter().zip(stage_counts(true)) {
            assert!(
                after >= before + 2,
                "stage {} recorded {} samples for an insert and a remove",
                Stage::name(s),
                after - before
            );
        }
    }

    /// One traced request over a cached server yields a span tree with
    /// the stage hierarchy and cache hit/miss annotations in place.
    #[test]
    fn request_trace_captures_stage_spans_and_cache_outcomes() {
        use tdess_obs::SpanRecord;
        let mut db = ShapeDatabase::new(extractor());
        bulk_insert(&mut db, meshes(3), 2).unwrap();
        let server = SearchServer::with_cache(db, CacheConfig::default());
        let mesh = primitives::uv_sphere(1.0, 16, 8);
        let query = Query::top_k(FeatureKind::PrincipalMoments, 2);

        let features = server.snapshot().extract_query(&mesh).unwrap();
        let threshold = |t| Query::threshold(FeatureKind::ShellHistogram, t);

        let guard =
            tdess_obs::begin_request("core-span-test", "search_mesh", std::time::Instant::now());
        server.search_mesh(&mesh, &query).unwrap(); // cold: miss
        server.search_mesh(&mesh, &query).unwrap(); // warm: hit
        server.search_features(&features, &threshold(0.5)); // ball on the tree
        server.search_features(&features, &threshold(0.0)); // scan of every shape
        let t = tdess_obs::TraceGuard::finish(guard, false).expect("trace collected");

        assert_eq!(t.trace_id, "core-span-test");
        assert_eq!(t.spans[0].name, "search_mesh");
        let extracts: Vec<&SpanRecord> = t
            .spans
            .iter()
            .filter(|s| s.name == "query_extract")
            .collect();
        assert_eq!(extracts.len(), 2, "one query_extract span per search");
        let cache_tag = |s: &SpanRecord| {
            s.tags
                .iter()
                .find(|(k, _)| k == "cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(cache_tag(extracts[0]).as_deref(), Some("miss"));
        assert_eq!(cache_tag(extracts[1]).as_deref(), Some("hit"));
        // Both extractions hang directly off the request root...
        assert!(extracts.iter().all(|s| s.parent == 1));
        // ...and the cold one encloses the full extraction pipeline.
        let cold_id = extracts[0].id;
        for name in [
            "normalize",
            "voxelize",
            "skeletonize",
            "graph_build",
            "eigen",
        ] {
            assert!(
                t.spans
                    .iter()
                    .any(|s| s.name == name && s.parent == cold_id),
                "missing nested {name} span under the cold query_extract"
            );
        }
        // The index searches run outside extraction, under the root,
        // and each names its space and the entries it checked: the
        // top-k pair, the ball and the scan of all three shapes.
        let tag = |s: &SpanRecord, key: &str| {
            s.tags
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let searches: Vec<(Option<String>, Option<String>)> = t
            .spans
            .iter()
            .filter(|s| s.name == "index_search")
            .inspect(|s| assert_eq!(s.parent, 1))
            .map(|s| (tag(s, "kind"), tag(s, "entries_checked")))
            .collect();
        assert_eq!(searches.len(), 4, "{searches:?}");
        let kinds: Vec<&str> = searches.iter().filter_map(|(k, _)| k.as_deref()).collect();
        assert_eq!(
            kinds,
            [
                "principal moments",
                "principal moments",
                "shell histogram",
                "shell histogram"
            ]
        );
        let checked: Vec<u64> = searches
            .iter()
            .filter_map(|(_, n)| n.as_deref()?.parse().ok())
            .collect();
        assert_eq!(checked.len(), 4, "{searches:?}");
        assert!(checked[..3].iter().all(|&n| n > 0), "{checked:?}");
        assert_eq!(checked[3], 3, "the scan checks every shape");
        // The warm extraction still normalizes (the content key needs
        // the normalized mesh) but skips the rest of the pipeline.
        let warm_id = extracts[1].id;
        let warm_children: Vec<&str> = t
            .spans
            .iter()
            .filter(|s| s.parent == warm_id)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(warm_children, ["normalize"]);
    }
}
