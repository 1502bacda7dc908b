//! An R-tree over feature-space points (§2.3 of the paper).
//!
//! Points are stored at the leaves. The feature spaces run from 3 to
//! 64 dimensions, and many of their axes are constant over a whole
//! database (the shell histogram's innermost shells are empty for
//! every shape), so every partition of the tree cuts along the axes
//! where its entries actually spread: STR bulk loading tiles on the
//! widest axes, and an overflowing node is split along its widest axis
//! where the two halves' margins sum least. An insert descends into
//! the child whose box grows least in margin; unlike volume, margin
//! stays informative when a box is flat on some axis.
//!
//! Supports the paper's two query types, similarity-ball queries and
//! best-first k-nearest-neighbor search with MINDIST pruning
//! (Roussopoulos et al. / Hjaltason & Samet), plus the exact diameter
//! of the stored points by a dual-tree branch and bound. Queries are
//! instrumented with node-access counters so the index-efficiency
//! experiment can compare against a linear scan.
//!
//! Trees are persistent: cloning one is O(1), and the clones share
//! every node until one of them changes it. Updates copy only the
//! nodes on the root-to-leaf path they modify (path copying), so a
//! database snapshot derived from another for one insert or remove
//! costs what the write changes, not the size of the tree.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::rect::Rect;
use crate::stats::QueryStats;

/// Tree fan-out configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RTreeConfig {
    /// Maximum entries per node before a split (Guttman's `M`).
    pub max_entries: usize,
    /// Minimum entries per node (Guttman's `m ≤ M/2`).
    pub min_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            max_entries: 16,
            min_entries: 6,
        }
    }
}

impl RTreeConfig {
    /// Checks `1 ≤ min_entries ≤ max_entries / 2` — the precondition
    /// `RTree::new` asserts, exposed as a fallible check so snapshot
    /// loaders can reject hostile configs instead of panicking later.
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.min_entries >= 1 && self.min_entries * 2 <= self.max_entries {
            Ok(())
        } else {
            Err(TreeError::BadConfig {
                min_entries: self.min_entries,
                max_entries: self.max_entries,
            })
        }
    }
}

/// Why a tree config read from disk was rejected.
///
/// `RTree::new` enforces its preconditions with assertions because a
/// bad config in code is a programming error; a config read from disk
/// gets this typed error instead, so a corrupt or hostile snapshot
/// fails loudly at load time rather than underflowing a split later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// `min_entries`/`max_entries` violate `1 ≤ m ≤ M/2`.
    BadConfig {
        /// Stored minimum fan-out.
        min_entries: usize,
        /// Stored maximum fan-out.
        max_entries: usize,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::BadConfig {
                min_entries,
                max_entries,
            } => write!(
                f,
                "invalid fan-out config: need 1 <= min_entries <= max_entries/2, \
                 got min {min_entries}, max {max_entries}"
            ),
        }
    }
}

impl std::error::Error for TreeError {}

/// A tree node. Each node's entry array sits behind an `Arc` so
/// trees can share it; a shared array is never mutated, only replaced
/// by a modified copy ([`path_copy`]). Sharing the array itself, not
/// an `Arc` around each child, keeps a traversal at one pointer hop
/// per visited node.
#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Arc<[(Vec<f64>, T)]>),
    Inner(Arc<[(Rect, Node<T>)]>),
}

impl<T> Node<T> {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Inner(e) => e.len(),
        }
    }

    fn bounding_rect(&self, dim: usize) -> Rect {
        let mut r: Option<Rect> = None;
        match self {
            Node::Leaf(entries) => {
                // Widen two corner vectors in place rather than
                // building a degenerate Rect per point — this runs
                // once per leaf during bulk loads and splits.
                if let Some(((p0, _), rest)) = entries.split_first() {
                    let mut rect = Rect::from_point(p0);
                    for (p, _) in rest {
                        for (d, &v) in p.iter().enumerate() {
                            rect.min[d] = rect.min[d].min(v);
                            rect.max[d] = rect.max[d].max(v);
                        }
                    }
                    r = Some(rect);
                }
            }
            Node::Inner(entries) => {
                for (er, _) in entries.iter() {
                    match &mut r {
                        Some(acc) => acc.union_in_place(er),
                        // hotpath: allow(hot-alloc) — the enclosing rect is the computed artifact
                        None => r = Some(er.clone()),
                    }
                }
            }
        }
        r.unwrap_or_else(|| Rect::new(vec![0.0; dim], vec![0.0; dim]))
    }
}

/// A point R-tree with payloads of type `T`.
///
/// `Clone` is O(1): the clone shares every node with the original,
/// and [`RTree::insert`] / [`RTree::remove`] on either one copy only
/// the path they modify, leaving the other tree unchanged.
///
/// ```
/// use tdess_index::{QueryStats, RTree};
///
/// let mut tree: RTree<&str> = RTree::with_dim(2);
/// tree.insert(vec![0.0, 0.0], "origin");
/// tree.insert(vec![5.0, 5.0], "far");
///
/// let mut stats = QueryStats::default();
/// let nearest = tree.knn(&[0.2, 0.1], 1, &mut stats);
/// assert_eq!(*nearest[0].1, "origin");
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T> {
    config: RTreeConfig,
    dim: usize,
    len: usize,
    root: Node<T>,
}

impl<T: Clone> RTree<T> {
    /// Creates an empty tree for `dim`-dimensional points.
    pub fn new(dim: usize, config: RTreeConfig) -> RTree<T> {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            config.min_entries >= 1 && config.min_entries * 2 <= config.max_entries,
            "need 1 <= min_entries <= max_entries/2"
        );
        RTree {
            config,
            dim,
            len: 0,
            root: Node::Leaf(Arc::new([])),
        }
    }

    /// Creates an empty tree with the default fan-out.
    pub fn with_dim(dim: usize) -> RTree<T> {
        RTree::new(dim, RTreeConfig::default())
    }

    /// Builds a tree from a batch of points in one pass using
    /// sort-tile-recursive (STR) packing (Leutenegger et al.).
    ///
    /// Each level is tiled on the [`STR_TILE_AXES`] axes along which
    /// its entries spread widest (points at the leaf level, node-rect
    /// centers above): the entries are partitioned into even slabs on
    /// the widest axis (quantile selection, no full sort), and each
    /// slab recursively tiled on the next until a tile fits in one
    /// node. Tiles are split as evenly as possible, so every node
    /// holds at least `max_entries / 2 ≥ min_entries` entries and the
    /// result satisfies [`RTree::check_invariants`]. Compared to
    /// repeated [`RTree::insert`], the packed tree is built in near
    /// linear time, with full, low-overlap nodes.
    ///
    /// Deterministic: the same entry sequence produces a byte-identical
    /// tree (keys compared with `total_cmp`, ties broken by position,
    /// so the tiling order is a pure function of the input sequence).
    pub fn bulk_load(dim: usize, config: RTreeConfig, entries: Vec<(Vec<f64>, T)>) -> RTree<T> {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            config.min_entries >= 1 && config.min_entries * 2 <= config.max_entries,
            "need 1 <= min_entries <= max_entries/2"
        );
        // Per-point preconditions are a caller contract, checked in
        // debug builds: every call site (feature extraction, snapshot
        // decode) has already validated dimensionality and finiteness,
        // and an O(n·d) rescan here is measurable on the snapshot
        // load path at 10⁵ entries.
        for (p, _) in &entries {
            debug_assert_eq!(p.len(), dim, "point dimension mismatch");
            debug_assert!(p.iter().all(|v| v.is_finite()), "point must be finite");
        }
        let len = entries.len();
        // Tile indices, not entries: the sorts move one machine word
        // per element instead of a (point, payload) tuple, and the
        // entries themselves move exactly once, into their leaf.
        let leaf_index_groups = str_pack(
            (0..len).collect(),
            dim,
            config.max_entries,
            &|&i: &usize, axis| entries[i].0[axis],
        );
        let mut slots: Vec<Option<(Vec<f64>, T)>> = entries.into_iter().map(Some).collect();
        let mut level: Vec<(Rect, Node<T>)> = leaf_index_groups
            .into_iter()
            .map(|g| {
                let node = Node::Leaf(
                    g.into_iter()
                        // lint: allow(unwrap) — str_tile emits every index exactly once
                        .map(|i| slots[i].take().expect("index tiled once"))
                        .collect(),
                );
                (node.bounding_rect(dim), node)
            })
            .collect();
        while level.len() > 1 {
            level = str_pack(level, dim, config.max_entries, &|e, axis| e.0.center(axis))
                .into_iter()
                .map(|g| {
                    let node = Node::Inner(g.into());
                    (node.bounding_rect(dim), node)
                })
                .collect();
        }
        let root = match level.pop() {
            Some((_, node)) => node,
            None => Node::Leaf(Arc::new([])),
        };
        RTree {
            config,
            dim,
            len,
            root,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Inner(entries) = node {
            h += 1;
            node = &entries[0].1;
        }
        h
    }

    /// Inserts a point with payload. The nodes on the path from the
    /// root to the chosen leaf (and any a split creates) are copied;
    /// every other node stays shared with clones of this tree.
    pub fn insert(&mut self, point: Vec<f64>, payload: T) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        assert!(point.iter().all(|v| v.is_finite()), "point must be finite");
        self.len += 1;
        if let Some((r1, n1, r2, n2)) =
            Self::insert_rec(&mut self.root, point, payload, &self.config, self.dim)
        {
            // Root split: grow the tree.
            self.root = Node::Inner(Arc::new([(r1, n1), (r2, n2)]));
        }
    }

    /// Recursive insert; returns `Some(split)` if the child split and
    /// the parent must absorb two nodes instead of one. A node that
    /// does not split gets a modified copy of its entry array.
    fn insert_rec(
        node: &mut Node<T>,
        point: Vec<f64>,
        payload: T,
        config: &RTreeConfig,
        dim: usize,
    ) -> Option<(Rect, Node<T>, Rect, Node<T>)> {
        match node {
            Node::Leaf(entries) => {
                let mut copy = path_copy(entries, 1);
                copy.push((point, payload));
                if copy.len() > config.max_entries {
                    let (a, b) = split(copy, dim, config.min_entries, |(p, _), axis| {
                        (p[axis], p[axis])
                    });
                    let (a, b) = (Node::Leaf(a.into()), Node::Leaf(b.into()));
                    return Some((a.bounding_rect(dim), a, b.bounding_rect(dim), b));
                }
                *entries = copy.into();
                None
            }
            Node::Inner(entries) => {
                let best = choose_subtree(entries, &point);
                let mut copy = path_copy(entries, 1);
                match Self::insert_rec(&mut copy[best].1, point, payload, config, dim) {
                    // Tighten the bounding rect.
                    None => copy[best].0 = copy[best].1.bounding_rect(dim),
                    Some((ra, a, rb, b)) => {
                        copy[best] = (ra, a);
                        copy.push((rb, b));
                        if copy.len() > config.max_entries {
                            let (x, y) = split(copy, dim, config.min_entries, |(r, _), axis| {
                                (r.min[axis], r.max[axis])
                            });
                            let (x, y) = (Node::Inner(x.into()), Node::Inner(y.into()));
                            return Some((x.bounding_rect(dim), x, y.bounding_rect(dim), y));
                        }
                    }
                }
                *entries = copy.into();
                None
            }
        }
    }

    /// Removes one point equal to `point` (exact comparison) whose
    /// payload satisfies `pred`. Returns the payload if found.
    /// Underflowed nodes are condensed by reinserting their entries.
    /// Like [`RTree::insert`], only the nodes on the modified paths
    /// are copied; subtrees that were probed but did not hold the
    /// point stay shared.
    pub fn remove(&mut self, point: &[f64], pred: impl Fn(&T) -> bool) -> Option<T> {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        // hotpath: allow(hot-alloc) — reinsertion buffer for underflowed nodes, filled only on removes
        let mut orphans: Vec<(Vec<f64>, T)> = Vec::new();
        let (removed, root) = Self::remove_rec(
            &self.root,
            point,
            &pred,
            self.config.min_entries,
            &mut orphans,
        )?;
        self.root = root;
        self.len -= 1;
        // Collapse a root with a single inner child.
        while let Node::Inner(entries) = &self.root {
            let [(_, child)] = &entries[..] else {
                break;
            };
            self.root = child.clone();
        }
        let n_orphans = orphans.len();
        for (p, t) in orphans {
            self.insert(p, t);
        }
        self.len -= n_orphans; // inserts incremented; net unchanged
        Some(removed)
    }

    /// Recursive remove. `node` itself is left as it is (subtrees
    /// that are probed but do not hold the point stay shared); on a
    /// hit, returns the payload and the node's modified copy.
    fn remove_rec(
        node: &Node<T>,
        point: &[f64],
        pred: &impl Fn(&T) -> bool,
        min_entries: usize,
        orphans: &mut Vec<(Vec<f64>, T)>,
    ) -> Option<(T, Node<T>)> {
        match node {
            Node::Leaf(entries) => {
                let pos = entries
                    .iter()
                    .position(|(p, t)| p.as_slice() == point && pred(t))?;
                let mut copy = path_copy(entries, 0);
                let (_, t) = copy.remove(pos);
                Some((t, Node::Leaf(copy.into())))
            }
            Node::Inner(entries) => {
                let dim = point.len();
                for (i, (rect, child)) in entries.iter().enumerate() {
                    if !rect.contains_point(point) {
                        continue;
                    }
                    let Some((t, child)) =
                        Self::remove_rec(child, point, pred, min_entries, orphans)
                    else {
                        continue;
                    };
                    let mut copy = path_copy(entries, 0);
                    if child.len() < min_entries {
                        // Condense: orphan the whole child.
                        copy.remove(i);
                        collect_entries(&child, orphans);
                    } else {
                        copy[i] = (child.bounding_rect(dim), child);
                    }
                    return Some((t, Node::Inner(copy.into())));
                }
                None
            }
        }
    }

    /// All points within Euclidean distance `radius` of `center`,
    /// nearest first; equal distances come out in payload order, so
    /// the list depends only on the stored points, never on the tree's
    /// shape.
    pub fn within_distance(
        &self,
        center: &[f64],
        radius: f64,
        stats: &mut QueryStats,
    ) -> Vec<(&[f64], &T, f64)>
    where
        T: Ord,
    {
        let r2 = radius * radius;
        // hotpath: allow(hot-alloc) — traversal stack and hit list are the query's working set
        let mut out = Vec::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            stats.nodes_visited += 1;
            match node {
                Node::Leaf(entries) => {
                    stats.leaves_visited += 1;
                    for (p, t) in entries.iter() {
                        stats.entries_checked += 1;
                        let d2 = dist_sq(p, center);
                        if d2 <= r2 {
                            out.push((p.as_slice(), t, d2));
                        }
                    }
                }
                Node::Inner(entries) => {
                    for (r, child) in entries.iter() {
                        stats.entries_checked += 1;
                        if r.min_dist_sq(center) <= r2 {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        sort_hits(&mut out);
        out
    }

    /// The `k` nearest neighbors of `center`, nearest first, via
    /// best-first search bounded by the k-th best distance so far.
    ///
    /// A queue holds the nodes to visit in MINDIST order, and a
    /// max-heap the `k` best points seen, by (squared distance,
    /// payload). The search stops at the first node whose MINDIST
    /// exceeds the k-th distance: no point beneath it can enter the
    /// top `k`, not even on a tie. A point's squared distance stops
    /// accumulating once it passes the k-th, since the remaining terms
    /// are non-negative. Equal distances come out in payload order, as
    /// in [`RTree::within_distance`], so the answer depends only on
    /// the stored points; the nodes expanded are those whose MINDIST
    /// is at most the final k-th distance.
    pub fn knn(&self, center: &[f64], k: usize, stats: &mut QueryStats) -> Vec<(&[f64], &T, f64)>
    where
        T: Ord,
    {
        if k == 0 {
            // hotpath: allow(hot-alloc) — the hit list is the returned artifact; the node queue and the k best are the query's working set
            return Vec::new();
        }
        let mut queue = BinaryHeap::new();
        queue.push(Reverse((0, Carried(&self.root))));
        // `k` comes from the request: a top-k past the stored count
        // must not size the allocation.
        let mut best: BinaryHeap<Hit<'_, T>> = BinaryHeap::with_capacity(k.min(self.len));
        while let Some(Reverse((min_d2, Carried(node)))) = queue.pop() {
            if f64::from_bits(min_d2) > kth(&best, k) {
                break;
            }
            stats.nodes_visited += 1;
            match node {
                Node::Leaf(entries) => {
                    stats.leaves_visited += 1;
                    for (p, t) in entries.iter() {
                        stats.entries_checked += 1;
                        let Some(d2) = dist_sq_within(p, center, kth(&best, k)) else {
                            continue;
                        };
                        let hit = (d2.to_bits(), t, Carried(p.as_slice()));
                        if best.len() < k {
                            best.push(hit);
                        } else if let Some(mut worst) = best.peek_mut() {
                            if hit < *worst {
                                *worst = hit;
                            }
                        }
                    }
                }
                Node::Inner(entries) => {
                    let bound = kth(&best, k);
                    for (r, child) in entries.iter() {
                        stats.entries_checked += 1;
                        let d2 = r.min_dist_sq(center);
                        if d2 <= bound {
                            queue.push(Reverse((d2.to_bits(), Carried(child))));
                        }
                    }
                }
            }
        }
        let mut out: Vec<_> = best
            .into_iter()
            .map(|(d2, t, Carried(p))| (p, t, f64::from_bits(d2)))
            .collect();
        sort_hits(&mut out);
        out
    }

    /// The largest Euclidean distance between two stored points, or
    /// `at_least` if that is larger: bit for bit the maximum of
    /// `sqrt(Σ (aᵢ − bᵢ)²)` over all pairs, summed in axis order.
    ///
    /// A farthest-point sweep first finds a far pair. A dual-tree
    /// branch and bound then visits node pairs farthest first, and
    /// skips a pair only when its squared MAXDIST
    /// ([`Rect::max_dist_sq`]) cannot exceed the best pair found so
    /// far. Rounding is monotone, so no pair of points beneath a
    /// skipped pair is farther apart in floating point either.
    pub fn diameter(&self, at_least: f64) -> f64 {
        // The best squared distance of a pair found so far, seeded by
        // hopping to the point farthest from the last while that grows.
        let mut best = 0.0;
        let points = self.iter();
        let mut from = points.first().map(|&(p, _)| p);
        while let Some(a) = from.take() {
            for &(p, _) in &points {
                let d2 = dist_sq(a, p);
                if d2 > best {
                    (best, from) = (d2, Some(p));
                }
            }
        }
        let beats = |bound: f64, best: f64| bound > best && bound.sqrt() > at_least;
        let root = (self.root.bounding_rect(self.dim), self.root.clone());
        let mut pairs = BinaryHeap::new();
        pairs.push((
            root.0.max_dist_sq(&root.0).to_bits(),
            Carried((&root, &root)),
        ));
        while let Some((bound, Carried((a, b)))) = pairs.pop() {
            if !beats(f64::from_bits(bound), best) {
                break;
            }
            // A node paired with itself: each pair of its children (or
            // points) once.
            let same = std::ptr::eq(a, b);
            if let (Node::Leaf(pa), Node::Leaf(pb)) = (&a.1, &b.1) {
                for (i, (p, _)) in pa.iter().enumerate() {
                    for (q, _) in &pb[if same { i + 1 } else { 0 }..] {
                        best = f64::max(best, dist_sq(p, q));
                    }
                }
                continue;
            }
            // Descend both sides. Leaves share one depth, so they meet
            // leaves; should they not, a leaf side stands for itself.
            fn children<T>(side: &(Rect, Node<T>)) -> &[(Rect, Node<T>)] {
                match &side.1 {
                    Node::Inner(c) => c,
                    Node::Leaf(_) => std::slice::from_ref(side),
                }
            }
            let (xs, ys) = (children(a), children(b));
            for (i, x) in xs.iter().enumerate() {
                for y in &ys[if same { i } else { 0 }..] {
                    let bound = x.0.max_dist_sq(&y.0);
                    if beats(bound, best) {
                        pairs.push((bound.to_bits(), Carried((x, y))));
                    }
                }
            }
        }
        f64::sqrt(best).max(at_least)
    }

    /// Iterates over all stored (point, payload) pairs.
    pub fn iter(&self) -> Vec<(&[f64], &T)> {
        // hotpath: allow(hot-alloc) — traversal stack and output list are the returned artifact
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf(entries) => {
                    out.extend(entries.iter().map(|(p, t)| (p.as_slice(), t)));
                }
                Node::Inner(entries) => stack.extend(entries.iter().map(|(_, c)| c)),
            }
        }
        out
    }

    /// Checks structural invariants (for tests): bounding rectangles
    /// cover children, node occupancy within [min, max] except the
    /// root, uniform leaf depth.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn depth_of<T>(node: &Node<T>) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Inner(entries) => 1 + depth_of(&entries[0].1),
            }
        }
        fn rec<T>(
            node: &Node<T>,
            dim: usize,
            config: &RTreeConfig,
            depth: usize,
            leaf_depth: usize,
            is_root: bool,
        ) -> Result<usize, String> {
            match node {
                Node::Leaf(entries) => {
                    if depth != leaf_depth {
                        return Err(format!("leaf at depth {depth}, expected {leaf_depth}"));
                    }
                    if !is_root && entries.len() < config.min_entries {
                        return Err(format!("leaf underflow: {}", entries.len()));
                    }
                    if entries.len() > config.max_entries {
                        return Err(format!("leaf overflow: {}", entries.len()));
                    }
                    Ok(entries.len())
                }
                Node::Inner(entries) => {
                    if !is_root && entries.len() < config.min_entries {
                        return Err(format!("inner underflow: {}", entries.len()));
                    }
                    if entries.len() > config.max_entries {
                        return Err(format!("inner overflow: {}", entries.len()));
                    }
                    let mut total = 0;
                    for (r, child) in entries.iter() {
                        let cr = child.bounding_rect(dim);
                        if !(r.contains_point(&cr.min) && r.contains_point(&cr.max)) {
                            return Err("bounding rect does not cover child".into());
                        }
                        total += rec(child, dim, config, depth + 1, leaf_depth, false)?;
                    }
                    Ok(total)
                }
            }
        }
        let leaf_depth = depth_of(&self.root);
        let count = rec(&self.root, self.dim, &self.config, 1, leaf_depth, true)?;
        if count != self.len {
            return Err(format!("stored count {count} != len {}", self.len));
        }
        Ok(())
    }
}

impl<T> RTree<T> {
    /// The fan-out configuration this tree was built with.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }
}

/// Splits decorated `items` into `parts` groups in key order, group
/// sizes differing by at most one, via recursive quickselect —
/// `O(n log parts)` comparisons instead of a full sort's
/// `O(n log n)`. Groups come back ordered by key range but unsorted
/// internally; STR only needs slab *membership*, never the order
/// within a slab. `select_nth_unstable_by` is deterministic and the
/// positional tie-break makes the order total, so the partition is a
/// pure function of the input sequence.
fn split_even<I>(
    mut items: Vec<(f64, usize, I)>,
    parts: usize,
    out: &mut Vec<Vec<(f64, usize, I)>>,
) {
    if parts <= 1 {
        out.push(items);
        return;
    }
    let n = items.len();
    let (base, extra) = (n / parts, n % parts);
    let left_parts = parts / 2;
    // Exactly what the first `left_parts` groups of an even split
    // over `parts` hold, so group sizes stay even down the recursion.
    let left_len = base * left_parts + left_parts.min(extra);
    items.select_nth_unstable_by(left_len, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let right = items.split_off(left_len);
    split_even(items, left_parts, out);
    split_even(right, parts - left_parts, out);
}

/// Whether `r^k >= target`, without overflowing.
fn pow_at_least(r: usize, k: usize, target: usize) -> bool {
    let mut acc: usize = 1;
    for _ in 0..k {
        acc = acc.saturating_mul(r);
        if acc >= target {
            return true;
        }
    }
    acc >= target
}

/// Smallest `r` with `r^k >= target` (`ceil(target^(1/k))`).
fn nth_root_ceil(target: usize, k: usize) -> usize {
    let mut r = 1;
    while !pow_at_least(r, k, target) {
        r += 1;
    }
    r
}

/// Number of axes STR tiling sorts on: the widest-spread ones. Tiling
/// every axis of a 64-dimensional histogram space degenerates into
/// ~log₂(nodes) binary slab splits — a pass over the level per axis —
/// while the packing quality comes almost entirely from the few axes
/// along which the entries spread most. Capping keeps bulk builds at
/// a constant number of passes regardless of feature dimensionality.
const STR_TILE_AXES: usize = 3;

/// Axes ordered by the spread of `key` over `items` (largest minus
/// smallest value), widest first, equal spreads in axis order: the one
/// rule by which STR tiling and node splits choose where to cut.
fn axes_by_spread<I>(items: &[I], dim: usize, key: &impl Fn(&I, usize) -> f64) -> Vec<usize> {
    // hotpath: allow(hot-alloc) — per-partition scratch sized by the dimension
    let (mut lo, mut hi) = (vec![f64::INFINITY; dim], vec![f64::NEG_INFINITY; dim]);
    for it in items {
        for axis in 0..dim {
            let v = key(it, axis);
            lo[axis] = lo[axis].min(v);
            hi[axis] = hi[axis].max(v);
        }
    }
    let mut axes: Vec<usize> = (0..dim).collect();
    axes.sort_by(|&a, &b| (hi[b] - lo[b]).total_cmp(&(hi[a] - lo[a])));
    axes
}

/// Packs one tree level: tiles `items` on the [`STR_TILE_AXES`] axes
/// along which `key` spreads widest.
fn str_pack<I>(
    items: Vec<I>,
    dim: usize,
    max: usize,
    key: &impl Fn(&I, usize) -> f64,
) -> Vec<Vec<I>> {
    let axes = axes_by_spread(&items, dim, key);
    let mut groups = Vec::new();
    str_tile(
        items,
        &axes[..dim.min(STR_TILE_AXES)],
        max,
        key,
        &mut groups,
    );
    groups
}

/// Sort-tile-recursive partitioning: partitions `items` into even
/// slabs by their coordinate on the first of `axes` and recurses on
/// the rest until a tile fits in one node of `max` entries. Every
/// emitted group holds at least `max/2` items (when more than `max`
/// items are tiled), because slab and chunk boundaries are distributed
/// evenly. Slabs are carved out with [`split_even`] rather than a full
/// sort — STR needs quantile membership, not sorted order.
fn str_tile<I>(
    items: Vec<I>,
    axes: &[usize],
    max: usize,
    key: &impl Fn(&I, usize) -> f64,
    out: &mut Vec<Vec<I>>,
) {
    let n = items.len();
    let Some((&axis, rest)) = axes.split_first().filter(|_| n > max) else {
        out.push(items);
        return;
    };
    let nodes = n.div_ceil(max);
    let parts = if rest.is_empty() {
        nodes
    } else {
        nth_root_ceil(nodes, axes.len())
    };
    // Decorate with (key, position): each comparison reads two inline
    // f64s instead of chasing the key closure's indirections.
    let dec: Vec<(f64, usize, I)> = items
        .into_iter()
        .enumerate()
        .map(|(i, it)| (key(&it, axis), i, it))
        .collect();
    let mut groups: Vec<Vec<(f64, usize, I)>> = Vec::with_capacity(parts);
    split_even(dec, parts, &mut groups);
    for group in groups {
        let slab: Vec<I> = group.into_iter().map(|(_, _, it)| it).collect();
        if rest.is_empty() {
            out.push(slab);
        } else {
            str_tile(slab, rest, max, key, out);
        }
    }
}

/// Splits an overflowing node's entries, whose extent on an axis is
/// `bounds(entry, axis)`, in two. They are sorted along their widest
/// axis ([`axes_by_spread`]) and cut where the two halves' margins sum
/// least, with at least `min` entries on each side; of equal sums the
/// first cut wins.
fn split<E>(
    mut entries: Vec<E>,
    dim: usize,
    min: usize,
    bounds: impl Fn(&E, usize) -> (f64, f64),
) -> (Vec<E>, Vec<E>) {
    // Twice the center: it sorts entries as the center does.
    let key = |e: &E, axis| {
        let (lo, hi) = bounds(e, axis);
        lo + hi
    };
    let axis = axes_by_spread(&entries, dim, &key)[0];
    entries.sort_by(|a, b| key(a, axis).total_cmp(&key(b, axis)));
    let n = entries.len();
    // hotpath: allow(hot-alloc) — per-split sweep state, sized by the fan-out and the dimension
    let (mut lo, mut hi) = (vec![f64::INFINITY; dim], vec![f64::NEG_INFINITY; dim]);
    // The margin of `entries[i..]`, for every cut `i` a split may use.
    let mut right = vec![0.0; n];
    for i in (min..n).rev() {
        right[i] = widen(&mut lo, &mut hi, |axis| bounds(&entries[i], axis));
    }
    lo.fill(f64::INFINITY);
    hi.fill(f64::NEG_INFINITY);
    let mut best = (f64::INFINITY, min);
    for (i, e) in entries[..n - min].iter().enumerate() {
        let left = widen(&mut lo, &mut hi, |axis| bounds(e, axis));
        let cut = i + 1;
        if cut >= min && left + right[cut] < best.0 {
            best = (left + right[cut], cut);
        }
    }
    let tail = entries.split_off(best.1);
    (entries, tail)
}

/// Widens the box `lo..hi` to cover an entry whose extent on an axis
/// is `bounds(axis)`; returns the box's new margin.
fn widen(lo: &mut [f64], hi: &mut [f64], bounds: impl Fn(usize) -> (f64, f64)) -> f64 {
    let mut margin = 0.0;
    for axis in 0..lo.len() {
        let (l, h) = bounds(axis);
        lo[axis] = lo[axis].min(l);
        hi[axis] = hi[axis].max(h);
        margin += hi[axis] - lo[axis];
    }
    margin
}

/// ChooseSubtree: the child whose box needs the least margin
/// enlargement to cover `point`, ties to the smaller margin, then to
/// the lower index. Reads the rects in place; builds none.
fn choose_subtree<T>(entries: &[(Rect, Node<T>)], point: &[f64]) -> usize {
    entries
        .iter()
        .enumerate()
        .map(|(i, (r, _))| (r.margin_enlargement(point), r.margin(), i))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)))
        .map_or(0, |(_, _, i)| i)
}

/// Collects all leaf entries beneath `node` into `out`.
fn collect_entries<T: Clone>(node: &Node<T>, out: &mut Vec<(Vec<f64>, T)>) {
    match node {
        Node::Leaf(entries) => out.extend(entries.iter().cloned()),
        Node::Inner(entries) => {
            for (_, child) in entries.iter() {
                collect_entries(child, out);
            }
        }
    }
}

/// A node's entries copied into a fresh, unshared array with room for
/// `extra` more — the one place an update copies a node. The caller
/// modifies the copy and stores it back (or splits it), so the shared
/// original is never written to.
fn path_copy<E: Clone>(entries: &[E], extra: usize) -> Vec<E> {
    // hotpath: allow(hot-alloc) — path copying: one array per node an update modifies
    let mut copy = Vec::with_capacity(entries.len() + extra);
    copy.extend_from_slice(entries);
    copy
}

pub(crate) fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Orders hits carrying squared distances by (distance, payload) and
/// turns the squared distances into distances — the one hit order of
/// every query in this crate.
pub(crate) fn sort_hits<T: Ord>(hits: &mut [(&[f64], &T, f64)]) {
    hits.sort_unstable_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.1.cmp(b.1)));
    for hit in hits.iter_mut() {
        hit.2 = hit.2.sqrt();
    }
}

/// `dist_sq(a, b)` if it is at most `bound`, else `None`. The sum runs
/// in the same order, so a returned value has the same bits; it stops
/// once the partial sum passes `bound`, as the terms are non-negative.
fn dist_sq_within(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += (x - y) * (x - y);
        if acc > bound {
            return None;
        }
    }
    Some(acc)
}

/// A value that rides along in a heap entry without taking part in
/// its order. The entries' keys are squared distances as bits:
/// non-negative floats order like their bit patterns, as `total_cmp`
/// orders them.
struct Carried<V>(V);

impl<V> PartialEq for Carried<V> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<V> Eq for Carried<V> {}
impl<V> PartialOrd for Carried<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<V> Ord for Carried<V> {
    fn cmp(&self, _: &Self) -> Ordering {
        Ordering::Equal
    }
}

/// One of [`RTree::knn`]'s best points so far, ordered by (squared
/// distance, payload): the max-heap's top is the k-th best.
type Hit<'a, T> = (u64, &'a T, Carried<&'a [f64]>);

/// The squared distance a point must not exceed to enter the `k` best:
/// the k-th best's, or unbounded while fewer than `k` are held.
fn kth<T: Ord>(best: &BinaryHeap<Hit<'_, T>>, k: usize) -> f64 {
    match best.peek() {
        Some(worst) if best.len() >= k => f64::from_bits(worst.0),
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points_2d(n: usize) -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                pts.push(vec![i as f64, j as f64]);
            }
        }
        pts
    }

    #[test]
    fn insert_and_len() {
        let mut t: RTree<usize> = RTree::with_dim(2);
        assert!(t.is_empty());
        for (i, p) in grid_points_2d(10).into_iter().enumerate() {
            t.insert(p, i);
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() > 1, "tree should have split");
        t.check_invariants().unwrap();
    }

    #[test]
    fn knn_returns_sorted_nearest() {
        let mut t: RTree<usize> = RTree::with_dim(2);
        let pts = grid_points_2d(12);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i);
        }
        let q = [5.2, 5.7];
        let mut stats = QueryStats::default();
        let got = t.knn(&q, 5, &mut stats);
        assert_eq!(got.len(), 5);
        // Distances non-decreasing.
        for w in got.windows(2) {
            assert!(w[0].2 <= w[1].2 + 1e-12);
        }
        // Matches brute force.
        let mut brute: Vec<(usize, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i, ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2)).sqrt()))
            .collect();
        brute.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (g, b) in got.iter().zip(&brute) {
            assert!((g.2 - b.1).abs() < 1e-12);
        }
        // Best-first must prune: visiting every node would defeat the
        // index.
        let total_nodes = {
            // crude upper bound: every leaf holds >= min_entries
            144 / 6 + 10
        };
        assert!(stats.nodes_visited < total_nodes, "no pruning happened");
    }

    #[test]
    fn within_distance_matches_brute_force() {
        let mut t: RTree<usize> = RTree::with_dim(3);
        let mut pts = Vec::new();
        // Deterministic pseudo-random points.
        let mut s = 7u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        };
        for i in 0..500 {
            let p = vec![rnd(), rnd(), rnd()];
            pts.push(p.clone());
            t.insert(p, i);
        }
        let q = [5.0, 5.0, 5.0];
        let mut stats = QueryStats::default();
        let got: Vec<usize> = t
            .within_distance(&q, 2.0, &mut stats)
            .iter()
            .map(|(_, &i, _)| i)
            .collect();
        let want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let d2: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                d2 <= 4.0
            })
            .map(|(i, _)| i)
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        assert_eq!(got_sorted, want);
        // Results sorted by distance.
        let ds: Vec<f64> = t
            .within_distance(&q, 2.0, &mut QueryStats::default())
            .iter()
            .map(|r| r.2)
            .collect();
        for w in ds.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn remove_then_query() {
        let mut t: RTree<usize> = RTree::with_dim(2);
        let pts = grid_points_2d(8);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i);
        }
        // Remove a handful.
        for i in [0usize, 17, 33, 63] {
            let removed = t.remove(&pts[i], |&p| p == i);
            assert_eq!(removed, Some(i));
        }
        assert_eq!(t.len(), 60);
        t.check_invariants().unwrap();
        // Removed points are gone from knn of themselves.
        let mut stats = QueryStats::default();
        let nn = t.knn(&pts[17], 1, &mut stats);
        assert_ne!(*nn[0].1, 17);
        // Removing a non-existent point is None.
        assert_eq!(t.remove(&[100.0, 100.0], |_| true), None);
    }

    #[test]
    fn duplicate_points_supported() {
        let mut t: RTree<u32> = RTree::with_dim(2);
        for i in 0..10 {
            t.insert(vec![1.0, 1.0], i);
        }
        assert_eq!(t.len(), 10);
        let mut stats = QueryStats::default();
        let got = t.knn(&[1.0, 1.0], 10, &mut stats);
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|g| g.2 == 0.0));
    }

    #[test]
    fn knn_k_larger_than_len() {
        let mut t: RTree<u32> = RTree::with_dim(2);
        t.insert(vec![0.0, 0.0], 1);
        t.insert(vec![1.0, 0.0], 2);
        let got = t.knn(&[0.0, 0.0], 10, &mut QueryStats::default());
        assert_eq!(got.len(), 2);
    }

    /// A top-k from a request can be any size: `k` past the stored
    /// count returns every point, in the linear scan's order, without
    /// reserving room for `k`.
    #[test]
    fn knn_with_unbounded_k_matches_linear_scan() {
        let mut t: RTree<usize> = RTree::with_dim(2);
        let mut l = crate::LinearScan::new(2);
        for (i, p) in grid_points_2d(7).into_iter().enumerate() {
            t.insert(p.clone(), i);
            l.insert(p, i);
        }
        let q = [2.3, 4.1];
        let ids = |hits: Vec<(&[f64], &usize, f64)>| -> Vec<(usize, u64)> {
            hits.into_iter()
                .map(|(_, &i, d)| (i, d.to_bits()))
                .collect()
        };
        let got = ids(t.knn(&q, usize::MAX, &mut QueryStats::default()));
        assert_eq!(got.len(), 49);
        assert_eq!(got, ids(l.knn(&q, usize::MAX, &mut QueryStats::default())));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected() {
        let mut t: RTree<u32> = RTree::with_dim(3);
        t.insert(vec![1.0, 2.0], 0);
    }

    fn pseudo_random_points(n: usize, dim: usize, mut seed: u64) -> Vec<Vec<f64>> {
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        };
        (0..n).map(|_| (0..dim).map(|_| rnd()).collect()).collect()
    }

    #[test]
    fn bulk_load_satisfies_invariants_at_many_sizes() {
        for n in [0usize, 1, 5, 16, 17, 33, 97, 256, 1000] {
            let pts = pseudo_random_points(n, 3, 42);
            let entries: Vec<(Vec<f64>, usize)> =
                pts.into_iter().enumerate().map(|(i, p)| (p, i)).collect();
            let t = RTree::bulk_load(3, RTreeConfig::default(), entries);
            assert_eq!(t.len(), n);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn bulk_load_queries_match_incremental_tree() {
        let pts = pseudo_random_points(500, 4, 7);
        let mut incremental: RTree<usize> = RTree::with_dim(4);
        for (i, p) in pts.iter().enumerate() {
            incremental.insert(p.clone(), i);
        }
        let packed = RTree::bulk_load(
            4,
            RTreeConfig::default(),
            pts.iter().cloned().zip(0..).collect(),
        );
        for q in pts.iter().step_by(37) {
            let a = incremental.knn(q, 8, &mut QueryStats::default());
            let b = packed.knn(q, 8, &mut QueryStats::default());
            let da: Vec<u64> = a.iter().map(|r| r.2.to_bits()).collect();
            let db: Vec<u64> = b.iter().map(|r| r.2.to_bits()).collect();
            assert_eq!(da, db, "knn distances differ at query {q:?}");
            let wa = incremental.within_distance(q, 1.5, &mut QueryStats::default());
            let wb = packed.within_distance(q, 1.5, &mut QueryStats::default());
            assert_eq!(wa.len(), wb.len());
        }
    }

    #[test]
    fn bulk_load_is_deterministic() {
        let pts = pseudo_random_points(300, 3, 99);
        let entries = || {
            pts.iter()
                .cloned()
                .zip(0..)
                .collect::<Vec<(Vec<f64>, u32)>>()
        };
        let a: RTree<u32> = RTree::bulk_load(3, RTreeConfig::default(), entries());
        let b: RTree<u32> = RTree::bulk_load(3, RTreeConfig::default(), entries());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn bulk_load_needs_no_more_node_accesses_than_incremental() {
        let pts = pseudo_random_points(2000, 3, 11);
        let mut incremental: RTree<usize> = RTree::with_dim(3);
        for (i, p) in pts.iter().enumerate() {
            incremental.insert(p.clone(), i);
        }
        let packed = RTree::bulk_load(
            3,
            RTreeConfig::default(),
            pts.iter().cloned().zip(0..).collect(),
        );
        let mut inc_stats = QueryStats::default();
        let mut str_stats = QueryStats::default();
        for q in pts.iter().step_by(29) {
            incremental.knn(q, 10, &mut inc_stats);
            packed.knn(q, 10, &mut str_stats);
        }
        assert!(
            str_stats.nodes_visited <= inc_stats.nodes_visited,
            "STR tree visited {} nodes vs incremental {}",
            str_stats.nodes_visited,
            inc_stats.nodes_visited
        );
    }

    #[test]
    fn bulk_load_with_duplicates() {
        let entries: Vec<(Vec<f64>, u32)> = (0..50).map(|i| (vec![1.0, 2.0], i)).collect();
        let t = RTree::bulk_load(2, RTreeConfig::default(), entries);
        t.check_invariants().unwrap();
        let got = t.knn(&[1.0, 2.0], 50, &mut QueryStats::default());
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn config_validate_matches_constructor_rules() {
        assert!(RTreeConfig::default().validate().is_ok());
        assert!(RTreeConfig {
            max_entries: 16,
            min_entries: 0
        }
        .validate()
        .is_err());
        assert!(RTreeConfig {
            max_entries: 10,
            min_entries: 6
        }
        .validate()
        .is_err());
        assert!(RTreeConfig {
            max_entries: 2,
            min_entries: 1
        }
        .validate()
        .is_ok());
    }

    /// Addresses of every entry array reachable from `node`.
    fn arrays<T>(node: &Node<T>, out: &mut Vec<*const u8>) {
        match node {
            Node::Leaf(e) => out.push(Arc::as_ptr(e) as *const u8),
            Node::Inner(e) => {
                out.push(Arc::as_ptr(e) as *const u8);
                for (_, child) in e.iter() {
                    arrays(child, out);
                }
            }
        }
    }

    #[test]
    fn writes_to_a_clone_copy_only_their_paths() {
        let pts = pseudo_random_points(2000, 3, 5);
        let original: RTree<usize> = RTree::bulk_load(
            3,
            RTreeConfig::default(),
            pts.iter().cloned().zip(0..).collect(),
        );
        let before = format!("{original:?}");
        let mut copy = original.clone();
        copy.insert(vec![5.0, 5.0, 5.0], 9999);
        assert_eq!(copy.remove(&pts[17], |&i| i == 17), Some(17));
        assert_eq!(copy.len(), original.len());
        copy.check_invariants().unwrap();
        // The original is untouched by writes to its clone...
        assert_eq!(format!("{original:?}"), before);
        original.check_invariants().unwrap();
        // ...and the clone shares every array but those on the two
        // modified paths (plus any split products).
        let (mut old, mut new) = (Vec::new(), Vec::new());
        arrays(&original.root, &mut old);
        arrays(&copy.root, &mut new);
        let old: std::collections::HashSet<_> = old.into_iter().collect();
        let copied = new.iter().filter(|p| !old.contains(p)).count();
        assert!(
            copied <= 4 * original.height() + 2,
            "{copied} of {} arrays copied",
            new.len()
        );
    }

    /// `diameter` is the brute-force pairwise maximum bit for bit, on
    /// packed and on incrementally built trees; a seed at or above it
    /// comes back unchanged.
    #[test]
    fn diameter_matches_pairwise_maximum() {
        for (n, dim) in [
            (0usize, 3usize),
            (1, 3),
            (2, 3),
            (17, 3),
            (120, 5),
            (64, 8),
            (300, 32),
        ] {
            let pts: Vec<Vec<f64>> = pseudo_random_points(n, dim, 0x1234_5678_9abc_def0)
                .into_iter()
                .map(|p| p.into_iter().map(|v| 2.0 * v - 10.0).collect())
                .collect();
            let mut full = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    full = full.max(dist_sq(&pts[i], &pts[j]).sqrt());
                }
            }
            let packed = RTree::bulk_load(
                dim,
                RTreeConfig::default(),
                pts.iter().cloned().zip(0..).collect(),
            );
            let mut inserted: RTree<usize> = RTree::with_dim(dim);
            for (i, p) in pts.iter().enumerate() {
                inserted.insert(p.clone(), i);
            }
            for tree in [&packed, &inserted] {
                assert_eq!(
                    tree.diameter(0.0).to_bits(),
                    full.to_bits(),
                    "n={n} dim={dim}"
                );
                assert_eq!(tree.diameter(full), full);
                assert_eq!(tree.diameter(full + 1.0), full + 1.0);
            }
        }
    }

    /// Splits cut along the widest axis: points spread along axis 2
    /// only (axes 0 and 1 constant) are split into two runs on that
    /// axis, not across it.
    #[test]
    fn splits_cut_along_the_widest_axis() {
        let entries: Vec<(Vec<f64>, usize)> =
            (0..17).map(|i| (vec![1.0, 1.0, i as f64], i)).collect();
        let (a, b) = split(entries, 3, 6, |(p, _), axis| (p[axis], p[axis]));
        assert!(a.len() >= 6 && b.len() >= 6);
        let last_a = a.iter().map(|(p, _)| p[2]).fold(f64::MIN, f64::max);
        assert!(
            b.iter().all(|(p, _)| p[2] > last_a),
            "halves overlap on axis 2"
        );
    }

    #[test]
    fn invariants_hold_under_churn() {
        let mut t: RTree<usize> = RTree::new(
            2,
            RTreeConfig {
                max_entries: 8,
                min_entries: 3,
            },
        );
        let pts = grid_points_2d(15);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i);
            if i % 7 == 0 && i > 0 {
                let victim = i / 2;
                t.remove(&pts[victim], |&p| p == victim);
            }
        }
        t.check_invariants().unwrap();
    }
}
