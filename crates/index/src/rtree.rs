//! An R-tree over feature-space points (§2.3 of the paper).
//!
//! Classic Guttman R-tree with quadratic split, storing points at the
//! leaves. Supports the paper's two query types: similarity-ball
//! queries and best-first k-nearest-neighbor search with MINDIST pruning
//! (Roussopoulos et al. / Hjaltason & Samet). All traversals are
//! instrumented with node-access counters so the index-efficiency
//! experiment can compare against a linear scan.
//!
//! Trees are persistent: cloning one is O(1), and the clones share
//! every node until one of them changes it. Updates copy only the
//! nodes on the root-to-leaf path they modify (path copying), so a
//! database snapshot derived from another for one insert or remove
//! costs what the write changes, not the size of the tree.

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
    /// Points are partitioned into even slabs by their first
    /// coordinate (quantile selection, no full sort), and each slab
    /// recursively tiled on the remaining axes until a tile fits in
    /// one leaf; upper levels are packed the same way on node-rect
    /// centers. Tiles are split as evenly as possible, so every node
    /// holds at least `max_entries / 2 ≥ min_entries` entries and the
    /// result satisfies [`RTree::check_invariants`]. Compared to
    /// repeated [`RTree::insert`], the packed tree is built in near
    /// linear time instead of amortized quadratic-split work, and its
    /// full, low-overlap nodes need no more node accesses per query.
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
        let tile_axes = dim.min(STR_TILE_AXES);
        // Tile indices, not entries: the sorts move one machine word
        // per element instead of a (point, payload) tuple, and the
        // entries themselves move exactly once, into their leaf.
        let mut leaf_index_groups: Vec<Vec<usize>> = Vec::new();
        str_tile(
            (0..len).collect(),
            0,
            tile_axes,
            config.max_entries,
            &|&i: &usize, axis| entries[i].0[axis],
            &mut leaf_index_groups,
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
            let mut groups: Vec<Vec<(Rect, Node<T>)>> = Vec::new();
            str_tile(
                level,
                0,
                tile_axes,
                config.max_entries,
                &|e: &(Rect, Node<T>), axis| e.0.center(axis),
                &mut groups,
            );
            level = groups
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
                    let (a, b) = split_leaf(copy, config);
                    let ra = a.bounding_rect(dim);
                    let rb = b.bounding_rect(dim);
                    debug_assert!(
                        ra.is_ordered() && rb.is_ordered(),
                        "leaf split produced an inverted bounding rect"
                    );
                    return Some((ra, a, rb, b));
                }
                *entries = copy.into();
                None
            }
            Node::Inner(entries) => {
                // ChooseLeaf: least enlargement, ties by smallest volume.
                let pr = Rect::from_point(&point);
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_vol = f64::INFINITY;
                for (i, (r, _)) in entries.iter().enumerate() {
                    let enl = r.enlargement(&pr);
                    let vol = r.volume();
                    if enl < best_enl || (enl == best_enl && vol < best_vol) {
                        best = i;
                        best_enl = enl;
                        best_vol = vol;
                    }
                }
                let mut copy = path_copy(entries, 1);
                match Self::insert_rec(&mut copy[best].1, point, payload, config, dim) {
                    None => {
                        // Tighten the bounding rect.
                        copy[best].0 = copy[best].1.bounding_rect(dim);
                    }
                    Some((ra, a, rb, b)) => {
                        copy.remove(best);
                        copy.push((ra, a));
                        copy.push((rb, b));
                        if copy.len() > config.max_entries {
                            let (x, y) = split_inner(copy, config);
                            let rx = x.bounding_rect(dim);
                            let ry = y.bounding_rect(dim);
                            debug_assert!(
                                rx.is_ordered() && ry.is_ordered(),
                                "inner split produced an inverted bounding rect"
                            );
                            return Some((rx, x, ry, y));
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
    /// best-first search on a priority queue of MINDIST values.
    ///
    /// Equal distances come out in payload order, as in
    /// [`RTree::within_distance`]. The heap orders entries by squared
    /// distance, then nodes before points, then payload. A node's
    /// MINDIST never exceeds the distance of a point beneath it, so by
    /// the time a point is emitted every point tied with it is already
    /// in the heap, and the payload order decides among them.
    pub fn knn(&self, center: &[f64], k: usize, stats: &mut QueryStats) -> Vec<(&[f64], &T, f64)>
    where
        T: Ord,
    {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        enum Item<'a, T> {
            Node(&'a Node<T>),
            Point(&'a [f64], &'a T),
        }

        struct HeapEntry<'a, T> {
            d2: f64,
            item: Item<'a, T>,
        }
        impl<T: Ord> PartialEq for HeapEntry<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl<T: Ord> Eq for HeapEntry<'_, T> {}
        impl<T: Ord> PartialOrd for HeapEntry<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T: Ord> Ord for HeapEntry<'_, T> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reversed throughout: BinaryHeap is a max-heap, and
                // the entry to pop first must compare greatest.
                other
                    .d2
                    .total_cmp(&self.d2)
                    .then_with(|| match (&self.item, &other.item) {
                        (Item::Node(_), Item::Node(_)) => Ordering::Equal,
                        (Item::Node(_), Item::Point(..)) => Ordering::Greater,
                        (Item::Point(..), Item::Node(_)) => Ordering::Less,
                        (Item::Point(_, a), Item::Point(_, b)) => b.cmp(a),
                    })
            }
        }

        let mut heap: BinaryHeap<HeapEntry<'_, T>> = BinaryHeap::new();
        heap.push(HeapEntry {
            d2: 0.0,
            item: Item::Node(&self.root),
        });
        // `k` comes from the request: a top-k past the stored count
        // must not size the allocation.
        let mut out = Vec::with_capacity(k.min(self.len));

        while let Some(HeapEntry { d2, item }) = heap.pop() {
            if out.len() >= k {
                break;
            }
            match item {
                Item::Point(p, t) => out.push((p, t, d2.sqrt())),
                Item::Node(node) => {
                    stats.nodes_visited += 1;
                    match node {
                        Node::Leaf(entries) => {
                            stats.leaves_visited += 1;
                            for (p, t) in entries.iter() {
                                stats.entries_checked += 1;
                                heap.push(HeapEntry {
                                    d2: dist_sq(p, center),
                                    item: Item::Point(p, t),
                                });
                            }
                        }
                        Node::Inner(entries) => {
                            for (r, child) in entries.iter() {
                                stats.entries_checked += 1;
                                heap.push(HeapEntry {
                                    d2: r.min_dist_sq(center),
                                    item: Item::Node(child),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
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

/// Number of axes STR tiling actually sorts on. Tiling every axis of a
/// 64-dimensional histogram space degenerates into ~log₂(nodes) binary
/// slab splits — a full stable sort of the level per axis — while the
/// packing quality comes almost entirely from the first few axes.
/// Capping keeps bulk builds at a constant number of sorting passes
/// regardless of feature dimensionality.
const STR_TILE_AXES: usize = 3;

/// Sort-tile-recursive partitioning: partitions `items` into even
/// slabs by their `axis` coordinate and recurses on the next axis
/// until a tile fits in one node of `max` entries. Every emitted
/// group holds at least `max/2` items (when more than `max` items are
/// tiled), because slab and chunk boundaries are distributed evenly.
/// Slabs are carved out with [`split_even`] rather than a full sort —
/// STR needs quantile membership, not sorted order.
///
/// `dim` is the number of axes to tile over, already capped by the
/// caller (see [`STR_TILE_AXES`]), not the full point dimensionality.
fn str_tile<I>(
    items: Vec<I>,
    axis: usize,
    dim: usize,
    max: usize,
    key: &impl Fn(&I, usize) -> f64,
    out: &mut Vec<Vec<I>>,
) {
    let n = items.len();
    if n <= max {
        out.push(items);
        return;
    }
    let nodes = n.div_ceil(max);
    let axes_left = dim - axis;
    let parts = if axes_left <= 1 {
        nodes
    } else {
        nth_root_ceil(nodes, axes_left)
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
        if axes_left <= 1 {
            out.push(slab);
        } else {
            str_tile(slab, axis + 1, dim, max, key, out);
        }
    }
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

/// Quadratic split (Guttman): pick the pair of entries wasting the
/// most area as seeds, then assign the rest greedily by enlargement.
fn split_leaf<T>(entries: Vec<(Vec<f64>, T)>, config: &RTreeConfig) -> (Node<T>, Node<T>) {
    // hotpath: allow(hot-alloc) — node splits move entries into the two new nodes
    let rects: Vec<Rect> = entries.iter().map(|(p, _)| Rect::from_point(p)).collect();
    let (ga, gb) = quadratic_split_assign(&rects, config);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (i, e) in entries.into_iter().enumerate() {
        if ga.contains(&i) {
            a.push(e);
        } else {
            debug_assert!(gb.contains(&i));
            b.push(e);
        }
    }
    (Node::Leaf(a.into()), Node::Leaf(b.into()))
}

fn split_inner<T>(entries: Vec<(Rect, Node<T>)>, config: &RTreeConfig) -> (Node<T>, Node<T>) {
    // hotpath: allow(hot-alloc) — node splits move entries into the two new nodes
    let rects: Vec<Rect> = entries.iter().map(|(r, _)| r.clone()).collect();
    let (ga, gb) = quadratic_split_assign(&rects, config);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (i, e) in entries.into_iter().enumerate() {
        if ga.contains(&i) {
            a.push(e);
        } else {
            debug_assert!(gb.contains(&i));
            b.push(e);
        }
    }
    (Node::Inner(a.into()), Node::Inner(b.into()))
}

/// Returns the index sets of the two split groups.
fn quadratic_split_assign(
    rects: &[Rect],
    config: &RTreeConfig,
) -> (
    std::collections::HashSet<usize>,
    std::collections::HashSet<usize>,
) {
    let n = rects.len();
    debug_assert!(n >= 2);
    // PickSeeds: pair with the greatest dead space.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let dead = rects[i].union(&rects[j]).volume() - rects[i].volume() - rects[j].volume();
            if dead > worst {
                worst = dead;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut ga: std::collections::HashSet<usize> = [s1].into();
    let mut gb: std::collections::HashSet<usize> = [s2].into();
    // hotpath: allow(hot-alloc) — seed rects for the quadratic split are per-split state
    let mut ra = rects[s1].clone();
    let mut rb = rects[s2].clone();
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();

    while !rest.is_empty() {
        // Force assignment when one group must absorb all remaining to
        // reach min_entries.
        if ga.len() + rest.len() == config.min_entries {
            for i in rest.drain(..) {
                ga.insert(i);
            }
            break;
        }
        if gb.len() + rest.len() == config.min_entries {
            for i in rest.drain(..) {
                gb.insert(i);
            }
            break;
        }
        // PickNext: entry with the greatest preference difference.
        let (mut pick, mut pick_pos, mut best_diff) = (rest[0], 0usize, f64::NEG_INFINITY);
        for (pos, &i) in rest.iter().enumerate() {
            let da = ra.enlargement(&rects[i]);
            let db = rb.enlargement(&rects[i]);
            let diff = (da - db).abs();
            if diff > best_diff {
                best_diff = diff;
                pick = i;
                pick_pos = pos;
            }
        }
        rest.swap_remove(pick_pos);
        let da = ra.enlargement(&rects[pick]);
        let db = rb.enlargement(&rects[pick]);
        let to_a = match da.total_cmp(&db) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                // Ties: smaller volume, then fewer entries.
                if ra.volume() != rb.volume() {
                    ra.volume() < rb.volume()
                } else {
                    ga.len() <= gb.len()
                }
            }
        };
        if to_a {
            ga.insert(pick);
            ra.union_in_place(&rects[pick]);
        } else {
            gb.insert(pick);
            rb.union_in_place(&rects[pick]);
        }
    }
    (ga, gb)
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
