//! The shape database (§2.3) and one-shot query processing (§2.4).
//!
//! Inserting a shape assigns it a database id, runs the full feature
//! extraction pipeline, stores all four feature vectors, and updates
//! one R-tree per feature space — exactly the flow the paper describes
//! ("whenever a shape is inserted in the database, a database ID is
//! generated for it and all the feature vectors are extracted and
//! stored ... then the index is updated").

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet, NormalizeError};
use tdess_geom::TriMesh;
use tdess_index::{QueryStats, RTree, RTreeConfig};
use tdess_obs::{Stage, StageTimer, TagValue};

use crate::shapes::{ShapeList, Shapes};
use crate::similarity::{similarity, threshold_to_radius, weighted_distance, Weights};

/// A database shape identifier.
pub type ShapeId = u64;

/// A stored shape: id, name, original mesh, and its feature vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredShape {
    /// Database id.
    pub id: ShapeId,
    /// Human-readable name.
    pub name: String,
    /// The original mesh (kept for result presentation / export).
    pub mesh: TriMesh,
    /// All extracted feature vectors.
    pub features: FeatureSet,
}

/// How a query selects results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryMode {
    /// The `k` most similar shapes.
    TopK(usize),
    /// All shapes with similarity ≥ the threshold (Eq. 4.4).
    Threshold(f64),
}

/// A one-shot query: one feature vector, optional per-dimension
/// weights, and a selection mode.
#[derive(Debug, Clone)]
pub struct Query {
    /// Which feature vector to search with.
    pub kind: FeatureKind,
    /// Per-dimension weights (unit if not set).
    pub weights: Weights,
    /// Selection mode.
    pub mode: QueryMode,
}

impl Query {
    /// Top-k query with unit weights.
    pub fn top_k(kind: FeatureKind, k: usize) -> Query {
        Query {
            kind,
            weights: Weights::unit(),
            mode: QueryMode::TopK(k),
        }
    }

    /// Threshold query with unit weights.
    pub fn threshold(kind: FeatureKind, threshold: f64) -> Query {
        Query {
            kind,
            weights: Weights::unit(),
            mode: QueryMode::Threshold(threshold),
        }
    }
}

/// One search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Database id of the matching shape.
    pub id: ShapeId,
    /// Weighted Euclidean distance to the query (Eq. 4.3).
    pub distance: f64,
    /// Similarity (Eq. 4.4).
    pub similarity: f64,
}

/// Errors from database operations.
#[derive(Debug)]
pub enum DbError {
    /// Feature extraction failed for the inserted/query mesh.
    Extraction(NormalizeError),
    /// The referenced shape id does not exist.
    UnknownShape(ShapeId),
    /// A parallel worker died or failed to report its result.
    WorkerFailure(&'static str),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Extraction(e) => write!(f, "feature extraction failed: {e}"),
            DbError::UnknownShape(id) => write!(f, "unknown shape id {id}"),
            DbError::WorkerFailure(what) => write!(f, "parallel worker failure: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<NormalizeError> for DbError {
    fn from(e: NormalizeError) -> Self {
        DbError::Extraction(e)
    }
}

/// The 3DESS shape database.
///
/// ```
/// use tdess_core::{Query, ShapeDatabase};
/// use tdess_features::{FeatureExtractor, FeatureKind};
/// use tdess_geom::{primitives, Vec3};
///
/// let mut db = ShapeDatabase::new(FeatureExtractor {
///     voxel_resolution: 16,
///     ..Default::default()
/// });
/// db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))?;
/// db.insert("ball", primitives::uv_sphere(1.0, 12, 6))?;
///
/// let query = primitives::box_mesh(Vec3::new(2.1, 1.0, 0.5));
/// let hits = db.search_mesh(&query, &Query::top_k(FeatureKind::PrincipalMoments, 1))?;
/// assert_eq!(db.get(hits[0].id).unwrap().name, "box");
/// # Ok::<(), tdess_core::DbError>(())
/// ```
///
/// # Cloning
///
/// Clones share structure. Stored shapes sit behind `Arc`s in chunks
/// of a few hundred that are themselves shared ([`crate::shapes`]),
/// and the R-trees share their nodes ([`RTree`] clones are O(1)), so a
/// clone copies one pointer per chunk and never a shape, a mesh, a
/// feature vector or a tree node. Inserting into or removing from
/// either copy then copies only the chunk it changes and the tree
/// nodes on the paths it changes; the other copy is unaffected. This
/// is how [`crate::SearchServer`] derives each new snapshot from the
/// last.
///
/// # `dmax`
///
/// Each feature space's `dmax` is the exact diameter of the stored
/// vectors after every write, bit for bit, so scores depend only on
/// the stored set. An insert asks each tree for the point farthest
/// from the new vector ([`RTree::farthest`]). A remove recomputes a
/// space's diameter ([`RTree::diameter`]) only when the leaving vector
/// was at distance `dmax` from a stored one.
///
/// # Persistence
///
/// Both on-disk formats ([`crate::persist`]) store the extractor, the
/// id counter, the tree fan-out, `dmax` and the shapes, and loading
/// rebuilds the R-trees from the shapes.
#[derive(Debug, Clone)]
pub struct ShapeDatabase {
    extractor: FeatureExtractor,
    next_id: ShapeId,
    /// In strictly ascending id order: ids are handed out in
    /// increasing order, removal keeps the order, and loading rejects
    /// anything else.
    shapes: ShapeList,
    /// One R-tree per feature space, indexed by `FeatureKind as usize`.
    indexes: [RTree<ShapeId>; FeatureKind::ALL.len()],
    /// Diameter (max pairwise distance) per feature space, indexed by
    /// `FeatureKind as usize`; normalizes similarity (Eq. 4.4).
    dmax: [f64; FeatureKind::ALL.len()],
}

impl ShapeDatabase {
    /// Creates an empty database with the given extractor
    /// configuration.
    pub fn new(extractor: FeatureExtractor) -> ShapeDatabase {
        ShapeDatabase {
            extractor,
            next_id: 1,
            shapes: ShapeList::default(),
            indexes: FeatureKind::ALL
                .map(|kind| RTree::new(extractor.dim(kind), RTreeConfig::default())),
            dmax: [0.0; FeatureKind::ALL.len()],
        }
    }

    /// The extractor used by this database (queries must be extracted
    /// with compatible settings).
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The id the next inserted shape will receive (persisted so id
    /// assignment continues across save/load).
    pub(crate) fn next_id(&self) -> ShapeId {
        self.next_id
    }

    /// Number of stored shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.shapes.len() == 0
    }

    /// All stored shapes, in insertion order (which is ascending id
    /// order).
    pub fn shapes(&self) -> Shapes<'_> {
        self.shapes.view()
    }

    /// Looks up a shape by id.
    pub fn get(&self, id: ShapeId) -> Option<&StoredShape> {
        self.shapes.get(id).map(|s| &**s)
    }

    /// Current similarity-normalization diameter for a feature space.
    pub fn dmax(&self, kind: FeatureKind) -> f64 {
        self.dmax[kind as usize]
    }

    /// Checks every structural invariant: the id order and chunking
    /// of [`ShapeDatabase::shapes`], each feature space's R-tree
    /// ([`RTree::check_invariants`]) holding one entry per stored
    /// shape, and each space's `dmax` having the bits of the exact
    /// diameter of its tree ([`RTree::diameter`]). At least O(n);
    /// meant for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shapes.check(self.next_id)?;
        for ((kind, tree), &dmax) in FeatureKind::ALL
            .into_iter()
            .zip(&self.indexes)
            .zip(&self.dmax)
        {
            tree.check_invariants()
                .map_err(|e| format!("{kind:?} index: {e}"))?;
            if tree.len() != self.len() {
                return Err(format!(
                    "{kind:?} index holds {} entries for {} shapes",
                    tree.len(),
                    self.len()
                ));
            }
            let exact = tree.diameter(0.0);
            if dmax.to_bits() != exact.to_bits() {
                return Err(format!(
                    "{kind:?} dmax is {dmax:e}, the stored diameter {exact:e}"
                ));
            }
        }
        Ok(())
    }

    /// Inserts a mesh: extracts all feature vectors, stores the shape,
    /// and updates every index. Returns the new id.
    pub fn insert(&mut self, name: impl Into<String>, mesh: TriMesh) -> Result<ShapeId, DbError> {
        let features = self.extractor.extract(&mesh)?;
        Ok(self.insert_precomputed(name, mesh, features))
    }

    /// Inserts a shape whose features were already extracted (with an
    /// extractor configured identically to this database's) — the
    /// fast path used by parallel bulk indexing.
    pub fn insert_precomputed(
        &mut self,
        name: impl Into<String>,
        mesh: TriMesh,
        features: FeatureSet,
    ) -> ShapeId {
        let id = self.next_id;
        self.next_id += 1;
        let shape = Arc::new(StoredShape {
            id,
            name: name.into(),
            mesh,
            features,
        });
        self.shapes.push(Arc::clone(&shape));
        // The new point can widen a space's diameter only by its
        // distance to a stored point, and `farthest` returns the
        // largest one that reaches `dmax`, bit for bit.
        let timer = StageTimer::start(Stage::DmaxUpdate);
        for ((kind, tree), dmax) in FeatureKind::ALL
            .into_iter()
            .zip(&self.indexes)
            .zip(&mut self.dmax)
        {
            *dmax = dmax.max(tree.farthest(shape.features.get(kind), *dmax));
        }
        let _stage = timer.handoff(Stage::IndexUpdate);
        for (kind, tree) in FeatureKind::ALL.into_iter().zip(&mut self.indexes) {
            tree.insert(shape.features.get(kind), id);
        }
        id
    }

    /// Inserts a batch of shapes with precomputed features. Ids are
    /// assigned in input order, and each feature space's `dmax` ends
    /// exactly where the sequential
    /// [`ShapeDatabase::insert_precomputed`] path would leave it.
    ///
    /// When the batch is large relative to the database (bulk corpus
    /// builds, snapshot loads), every index is rebuilt with the STR
    /// bulk loader instead of inserted into one point at a time, and
    /// each space's `dmax` is taken from its rebuilt tree
    /// ([`RTree::diameter`]) instead of one full scan per inserted
    /// shape. Search results are identical either way: distances are
    /// computed from the stored vectors, not the tree shape.
    pub fn insert_batch_precomputed(
        &mut self,
        items: Vec<(String, TriMesh, FeatureSet)>,
    ) -> Vec<ShapeId> {
        // A handful of inserts into a large database does not amortize
        // an O(n log n) rebuild of every tree; keep those incremental.
        if items.len() * 4 < self.len() {
            return items
                .into_iter()
                .map(|(name, mesh, features)| self.insert_precomputed(name, mesh, features))
                .collect();
        }
        let ids: Vec<ShapeId> = items
            .into_iter()
            .map(|(name, mesh, features)| {
                let id = self.next_id;
                self.next_id += 1;
                self.shapes.push(Arc::new(StoredShape {
                    id,
                    name,
                    mesh,
                    features,
                }));
                id
            })
            .collect();
        self.indexes = build_indexes(&self.extractor, self.shapes(), self.index_config());
        // `dmax` is the diameter of the shapes stored before the batch,
        // which the batch cannot shrink, so seeding the search with it
        // changes no value.
        for (tree, dmax) in self.indexes.iter().zip(&mut self.dmax) {
            *dmax = tree.diameter(*dmax);
        }
        ids
    }

    /// The fan-out configuration of this database's R-trees (every
    /// tree shares one).
    pub(crate) fn index_config(&self) -> RTreeConfig {
        self.indexes[0].config()
    }

    /// Assembles a database from the parts both on-disk formats store
    /// (extractor, id counter, shapes with features, `dmax` indexed by
    /// `FeatureKind as usize`, tree config), rejecting what untrusted
    /// bytes could have broken and STR-bulk-loading the indexes.
    ///
    /// The extractor config and each feature vector's length and
    /// finiteness are checked by the decoders, which share
    /// `snapshot::check_extractor` and `snapshot::check_vector`; the
    /// checks that span parts run here. A stored `dmax` is trusted:
    /// every writer stores the exact diameter, and recomputing it would
    /// add seconds to a load at 10⁵ shapes.
    pub(crate) fn from_loaded_parts(
        extractor: FeatureExtractor,
        next_id: ShapeId,
        shapes: Vec<Arc<StoredShape>>,
        dmax: [f64; FeatureKind::ALL.len()],
        config: RTreeConfig,
    ) -> Result<ShapeDatabase, String> {
        config.validate().map_err(|e| e.to_string())?;
        for (kind, d) in FeatureKind::ALL.into_iter().zip(dmax) {
            if !d.is_finite() || d < 0.0 {
                return Err(format!(
                    "dmax for {kind:?} is {d}, expected finite and >= 0"
                ));
            }
        }
        let shapes = ShapeList::from_loaded(shapes, next_id)?;
        let indexes = build_indexes(&extractor, shapes.view(), config);
        Ok(ShapeDatabase {
            extractor,
            next_id,
            shapes,
            indexes,
            dmax,
        })
    }

    /// Removes a shape from the database and all indexes, returning
    /// it (still shared with any snapshot that holds it).
    pub fn remove(&mut self, id: ShapeId) -> Result<Arc<StoredShape>, DbError> {
        let shape = self.shapes.remove(id).ok_or(DbError::UnknownShape(id))?;
        let timer = StageTimer::start(Stage::IndexUpdate);
        for (kind, tree) in FeatureKind::ALL.into_iter().zip(&mut self.indexes) {
            tree.remove(shape.features.get(kind), |&p| p == id);
        }
        // Only a leaving point at distance `dmax` from a stored one, an
        // end of a diametral pair, can shrink the diameter; then it is
        // recomputed from the tree.
        let _stage = timer.handoff(Stage::DmaxUpdate);
        for ((kind, tree), dmax) in FeatureKind::ALL
            .into_iter()
            .zip(&self.indexes)
            .zip(&mut self.dmax)
        {
            if *dmax > 0.0 && tree.farthest(shape.features.get(kind), *dmax) >= *dmax {
                *dmax = tree.diameter(0.0);
            }
        }
        Ok(shape)
    }

    /// Extracts the feature vectors of a query mesh using this
    /// database's extractor (the "query by example" entry point).
    pub fn extract_query(&self, mesh: &TriMesh) -> Result<FeatureSet, DbError> {
        Ok(self.extractor.extract(mesh)?)
    }

    /// One-shot search with an already-extracted query feature set.
    ///
    /// Unit-weight queries run on the R-tree; weighted queries scan the
    /// stored features (a weighted metric changes the geometry the
    /// index was built for).
    pub fn search(&self, features: &FeatureSet, query: &Query) -> Vec<SearchHit> {
        let mut stats = QueryStats::default();
        self.search_with_stats(features, query, &mut stats)
    }

    /// Like [`ShapeDatabase::search`], also accumulating index
    /// traversal statistics.
    pub fn search_with_stats(
        &self,
        features: &FeatureSet,
        query: &Query,
        stats: &mut QueryStats,
    ) -> Vec<SearchHit> {
        let q = features.get(query.kind);
        let dmax = self.dmax(query.kind);
        let checked_before = stats.entries_checked;

        if query.weights.is_unit() {
            let index = &self.indexes[query.kind as usize];
            match query.mode {
                QueryMode::TopK(k) => {
                    let timer = StageTimer::start(Stage::IndexSearch);
                    let raw = index.knn(q, k, stats);
                    tag_index_search(query.kind, stats.entries_checked - checked_before);
                    // Adjacent stages share one boundary clock read.
                    let _stage = timer.handoff(Stage::SimilarityCombine);
                    raw.into_iter()
                        .map(|(_, &id, d)| SearchHit {
                            id,
                            distance: d,
                            similarity: similarity(d, dmax),
                        })
                        // hotpath: allow(hot-alloc) — hit lists and stats are the returned artifact
                        .collect()
                }
                QueryMode::Threshold(t) => {
                    if t <= 0.0 {
                        // Similarity clamps at 0, so a zero threshold
                        // admits every shape — no distance ball can
                        // express that for a query outside the stored
                        // set; scan instead.
                        return self.scan_all_sorted(q, query, dmax, stats);
                    }
                    // Inflate the ball by a hair so float rounding in
                    // `d ≤ (1−t)·dmax` vs `1 − d/dmax ≥ t` cannot drop
                    // a boundary shape, then post-filter by the
                    // similarity the caller actually sees — the
                    // indexed path returns exactly the set the
                    // weighted scan would.
                    let radius = threshold_to_radius(t, dmax);
                    let radius = radius * (1.0 + 1e-12);
                    let timer = StageTimer::start(Stage::IndexSearch);
                    let raw = index.within_distance(q, radius, stats);
                    tag_index_search(query.kind, stats.entries_checked - checked_before);
                    let _stage = timer.handoff(Stage::SimilarityCombine);
                    raw.into_iter()
                        .map(|(_, &id, d)| SearchHit {
                            id,
                            distance: d,
                            similarity: similarity(d, dmax),
                        })
                        .filter(|h| h.similarity >= t)
                        .collect()
                }
            }
        } else {
            // Weighted scan: the linear distance pass plays the role
            // of the index traversal for stage accounting.
            let timer = StageTimer::start(Stage::IndexSearch);
            let mut hits: Vec<SearchHit> = self
                .shapes()
                .iter()
                .map(|s| {
                    stats.entries_checked += 1;
                    let d = weighted_distance(q, s.features.get(query.kind), &query.weights);
                    SearchHit {
                        id: s.id,
                        distance: d,
                        similarity: similarity(d, dmax),
                    }
                })
                .collect();
            tag_index_search(query.kind, stats.entries_checked - checked_before);
            let _stage = timer.handoff(Stage::SimilarityCombine);
            hits.sort_by(|a, b| a.distance.total_cmp(&b.distance));
            match query.mode {
                QueryMode::TopK(k) => {
                    hits.truncate(k);
                    hits
                }
                QueryMode::Threshold(t) => hits.into_iter().filter(|h| h.similarity >= t).collect(),
            }
        }
    }

    /// Distance-sorted hits for every stored shape (the degenerate
    /// `Threshold(0)` case, where similarity's clamp at 0 admits all).
    fn scan_all_sorted(
        &self,
        q: &[f64],
        query: &Query,
        dmax: f64,
        stats: &mut QueryStats,
    ) -> Vec<SearchHit> {
        let timer = StageTimer::start(Stage::IndexSearch);
        let mut hits: Vec<SearchHit> = self
            .shapes()
            .iter()
            .map(|s| {
                stats.entries_checked += 1;
                let d = weighted_distance(q, s.features.get(query.kind), &Weights::unit());
                SearchHit {
                    id: s.id,
                    distance: d,
                    similarity: similarity(d, dmax),
                }
            })
            // hotpath: allow(hot-alloc) — the sorted hit list is the returned artifact
            .collect();
        tag_index_search(query.kind, self.len());
        let _stage = timer.handoff(Stage::SimilarityCombine);
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        hits
    }

    /// Computes per-dimension standardization weights for a feature
    /// space: `wᵢ = 1/σᵢ²` over all stored shapes, normalized to mean
    /// 1 (so a weighted Euclidean distance becomes a Mahalanobis-like
    /// distance with a diagonal covariance). Useful when a feature's
    /// dimensions have very different spans — the geometric-parameter
    /// vector mixes aspect ratios (≈1–5) with volumes (up to
    /// hundreds), and unweighted distances let the big dimension
    /// dominate. Returns unit weights if fewer than two shapes are
    /// stored or every dimension is constant.
    pub fn standardized_weights(&self, kind: FeatureKind) -> Weights {
        if self.len() < 2 {
            return Weights::unit();
        }
        let dim = self.extractor.dim(kind);
        let n = self.len() as f64;
        let mut mean = vec![0.0; dim];
        for s in self.shapes() {
            for (m, v) in mean.iter_mut().zip(s.features.get(kind)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for s in self.shapes() {
            for d in 0..dim {
                var[d] += (s.features.get(kind)[d] - mean[d]).powi(2);
            }
        }
        if var.iter().all(|&v| v <= 0.0) {
            return Weights::unit();
        }
        // Scale-aware floor keeps constant dimensions from exploding.
        let mean_var: f64 = var.iter().sum::<f64>() / dim as f64 / n;
        let mut w: Vec<f64> = var
            .iter()
            .map(|v| 1.0 / (v / n + 1e-6 * mean_var.max(1e-300)))
            .collect();
        let mean_w: f64 = w.iter().sum::<f64>() / dim as f64;
        for x in w.iter_mut() {
            *x /= mean_w;
        }
        Weights::new(w)
    }

    /// Convenience: query by example with a mesh.
    pub fn search_mesh(&self, mesh: &TriMesh, query: &Query) -> Result<Vec<SearchHit>, DbError> {
        let features = self.extract_query(mesh)?;
        Ok(self.search(&features, query))
    }
}

/// Tags the open `index_search` span with the space searched and the
/// entries this search checked, so a slow request's trace names both;
/// a no-op when the request collects no spans.
fn tag_index_search(kind: FeatureKind, entries_checked: usize) {
    tdess_obs::annotate("kind", TagValue::Str(FeatureKind::label(kind)));
    tdess_obs::annotate("entries_checked", TagValue::U64(entries_checked as u64));
}

/// Builds every feature space's R-tree from `shapes` with the STR bulk
/// loader. The seven spaces are independent, so their trees build on
/// separate scoped threads (auto-joined); each build is
/// deterministic, so the parallelism cannot change results.
fn build_indexes(
    extractor: &FeatureExtractor,
    shapes: Shapes<'_>,
    config: RTreeConfig,
) -> [RTree<ShapeId>; FeatureKind::ALL.len()] {
    std::thread::scope(|scope| {
        FeatureKind::ALL
            .map(|kind| {
                scope.spawn(move || {
                    let entries: Vec<(&[f64], ShapeId)> = shapes
                        .iter()
                        .map(|s| (s.features.get(kind), s.id))
                        .collect();
                    RTree::bulk_load(extractor.dim(kind), config, entries)
                })
            })
            // lint: allow(unwrap) — propagates a build-thread panic
            .map(|h| h.join().expect("index build thread panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_geom::{primitives, Vec3};

    fn small_db() -> (ShapeDatabase, Vec<ShapeId>) {
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 24,
            ..Default::default()
        });
        let ids = vec![
            db.insert("box-a", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
                .unwrap(),
            db.insert("box-b", primitives::box_mesh(Vec3::new(2.2, 1.1, 0.55)))
                .unwrap(),
            db.insert("sphere", primitives::uv_sphere(1.0, 16, 8))
                .unwrap(),
            db.insert("rod", primitives::cylinder(0.3, 5.0, 16))
                .unwrap(),
            db.insert("torus", primitives::torus(1.5, 0.4, 24, 12))
                .unwrap(),
        ];
        (db, ids)
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let (db, ids) = small_db();
        assert_eq!(db.len(), 5);
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(db.get(3).unwrap().name, "sphere");
        assert!(db.get(99).is_none());
    }

    #[test]
    fn similar_box_ranks_first() {
        let (db, _) = small_db();
        let q = primitives::box_mesh(Vec3::new(2.1, 1.05, 0.52));
        for kind in [FeatureKind::MomentInvariants, FeatureKind::PrincipalMoments] {
            let hits = db.search_mesh(&q, &Query::top_k(kind, 3)).unwrap();
            assert_eq!(hits.len(), 3);
            let top = db.get(hits[0].id).unwrap();
            assert!(
                top.name.starts_with("box"),
                "{kind:?}: top hit {}",
                top.name
            );
            // Similarities are sorted and in [0, 1].
            for w in hits.windows(2) {
                assert!(w[0].similarity >= w[1].similarity - 1e-12);
            }
            assert!(hits.iter().all(|h| (0.0..=1.0).contains(&h.similarity)));
        }
    }

    #[test]
    fn threshold_query_filters_by_similarity() {
        let (db, _) = small_db();
        let q = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let hits = db
            .search_mesh(&q, &Query::threshold(FeatureKind::PrincipalMoments, 0.9))
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.similarity >= 0.9), "{hits:?}");
        // Lowering the threshold can only add results.
        let more = db
            .search_mesh(&q, &Query::threshold(FeatureKind::PrincipalMoments, 0.1))
            .unwrap();
        assert!(more.len() >= hits.len());
    }

    #[test]
    fn weighted_search_changes_ranking() {
        let (db, _) = small_db();
        let q = db.get(1).unwrap().features.clone();
        // Unit weights: the identical shape is rank 1 at distance 0.
        let unit = db.search(&q, &Query::top_k(FeatureKind::GeometricParams, 5));
        assert_eq!(unit[0].id, 1);
        assert!(unit[0].distance < 1e-9);
        // Zero out every dimension: all shapes tie at distance 0.
        let zero = db.search(
            &q,
            &Query {
                kind: FeatureKind::GeometricParams,
                weights: Weights::new(vec![0.0; 5]),
                mode: QueryMode::TopK(5),
            },
        );
        assert!(zero.iter().all(|h| h.distance == 0.0));
    }

    #[test]
    fn remove_deletes_everywhere() {
        let (mut db, _) = small_db();
        let gone = db.remove(3).unwrap();
        assert_eq!(gone.name, "sphere");
        assert_eq!(db.len(), 4);
        assert!(db.get(3).is_none());
        // The removed shape no longer appears in results.
        let q = primitives::uv_sphere(1.0, 16, 8);
        let hits = db
            .search_mesh(&q, &Query::top_k(FeatureKind::MomentInvariants, 4))
            .unwrap();
        assert!(hits.iter().all(|h| h.id != 3));
        assert!(matches!(db.remove(3), Err(DbError::UnknownShape(3))));
    }

    #[test]
    fn dmax_grows_monotonically() {
        let mut db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 20,
            ..Default::default()
        });
        assert_eq!(db.dmax(FeatureKind::MomentInvariants), 0.0);
        db.insert("a", primitives::box_mesh(Vec3::ONE)).unwrap();
        assert_eq!(db.dmax(FeatureKind::MomentInvariants), 0.0);
        db.insert("b", primitives::uv_sphere(1.0, 16, 8)).unwrap();
        let d1 = db.dmax(FeatureKind::MomentInvariants);
        assert!(d1 > 0.0);
        db.insert("c", primitives::cylinder(0.2, 8.0, 16)).unwrap();
        assert!(db.dmax(FeatureKind::MomentInvariants) >= d1);
    }

    #[test]
    fn self_query_is_perfect_match() {
        let (db, _) = small_db();
        for kind in FeatureKind::ALL {
            let q = db.get(2).unwrap().features.clone();
            let hits = db.search(&q, &Query::top_k(kind, 1));
            assert_eq!(hits[0].distance, 0.0, "{kind:?}");
            assert_eq!(hits[0].similarity, 1.0, "{kind:?}");
        }
    }

    #[test]
    fn standardized_weights_normalize_dimension_spans() {
        let (db, _) = small_db();
        let w = db.standardized_weights(FeatureKind::GeometricParams);
        assert!(!w.is_unit());
        let wv = w.0.as_ref().unwrap();
        assert_eq!(wv.len(), 5);
        assert!(wv.iter().all(|&x| x > 0.0 && x.is_finite()));
        // Mean weight is 1 by construction.
        let mean: f64 = wv.iter().sum::<f64>() / wv.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
        // Weights genuinely differ across dimensions (the point of
        // standardization): high-variance dimensions are down-weighted.
        let max = wv.iter().cloned().fold(f64::MIN, f64::max);
        let min = wv.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 2.0, "weights barely vary: {wv:?}");
        // Weighted self-query still matches perfectly.
        let q = db.get(1).unwrap().features.clone();
        let hits = db.search(
            &q,
            &Query {
                kind: FeatureKind::GeometricParams,
                weights: w,
                mode: QueryMode::TopK(1),
            },
        );
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].distance < 1e-9);
    }

    #[test]
    fn standardized_weights_degenerate_cases() {
        let db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: 16,
            ..Default::default()
        });
        assert!(db
            .standardized_weights(FeatureKind::PrincipalMoments)
            .is_unit());
    }

    #[test]
    fn batch_insert_matches_sequential_dmax_and_ids() {
        let meshes: Vec<(String, TriMesh)> = vec![
            ("box".into(), primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5))),
            ("sphere".into(), primitives::uv_sphere(1.0, 12, 6)),
            ("rod".into(), primitives::cylinder(0.3, 4.0, 12)),
            ("torus".into(), primitives::torus(1.5, 0.4, 16, 8)),
        ];
        let extractor = FeatureExtractor {
            voxel_resolution: 16,
            ..Default::default()
        };
        let mut seq = ShapeDatabase::new(extractor);
        let mut bat = ShapeDatabase::new(extractor);
        let mut items = Vec::new();
        for (name, mesh) in meshes {
            let features = extractor.extract(&mesh).unwrap();
            seq.insert_precomputed(name.clone(), mesh.clone(), features.clone());
            items.push((name, mesh, features));
        }
        let ids = bat.insert_batch_precomputed(items);
        assert_eq!(ids, vec![1, 2, 3, 4]);
        for kind in FeatureKind::ALL {
            assert_eq!(seq.dmax(kind), bat.dmax(kind), "{kind:?}");
        }
        // The batch-built database answers queries identically.
        let q = seq.get(2).unwrap().features.clone();
        for kind in FeatureKind::ALL {
            let a = seq.search(&q, &Query::top_k(kind, 4));
            let b = bat.search(&q, &Query::top_k(kind, 4));
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn threshold_paths_agree_on_boundary_shapes() {
        let (db, _) = small_db();
        let q = db.get(1).unwrap().features.clone();
        let kind = FeatureKind::PrincipalMoments;
        // Sweep thresholds including exact stored similarities (the
        // boundary cases where the two paths used to disagree).
        let mut thresholds: Vec<f64> = vec![0.0, 0.1, 0.5, 0.9, 0.999, 1.0];
        for s in db.shapes() {
            let d = weighted_distance(q.get(kind), s.features.get(kind), &Weights::unit());
            thresholds.push(similarity(d, db.dmax(kind)));
        }
        for t in thresholds {
            let indexed = db.search(&q, &Query::threshold(kind, t));
            // Brute-force similarity scan (what the weighted path does
            // with unit weights spelled out explicitly).
            let mut scan: Vec<ShapeId> = db
                .shapes()
                .iter()
                .filter(|s| {
                    let d = weighted_distance(q.get(kind), s.features.get(kind), &Weights::unit());
                    similarity(d, db.dmax(kind)) >= t
                })
                .map(|s| s.id)
                .collect();
            let mut got: Vec<ShapeId> = indexed.iter().map(|h| h.id).collect();
            got.sort_unstable();
            scan.sort_unstable();
            assert_eq!(got, scan, "threshold {t}");
            // Hits come back distance-sorted.
            for w in indexed.windows(2) {
                assert!(w[0].distance <= w[1].distance);
            }
        }
    }

    #[test]
    fn zero_volume_query_errors() {
        let (db, _) = small_db();
        let degenerate = TriMesh::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        assert!(matches!(
            db.search_mesh(&degenerate, &Query::top_k(FeatureKind::MomentInvariants, 1)),
            Err(DbError::Extraction(_))
        ));
    }
}
