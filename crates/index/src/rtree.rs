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
//! of the stored points by a dual-tree branch and bound and the
//! farthest stored point from a query by best-first MAXDIST. Queries are
//! instrumented with node-access counters so the index-efficiency
//! experiment can compare against a linear scan.
//!
//! Every node stores its entries as two flat arrays: a leaf its points
//! row-major (`dim` values a row) beside their payloads, an inner node
//! its children's boxes (`2·dim` values a row: the min corner, then the
//! max corner) beside the children. Queries score a node's rows
//! [`LANES`] at a time, each row summed in axis order exactly as
//! [`dist_sq`] sums it, so the lanes are independent dependency chains
//! and every distance keeps its bits (see [`scan`]).
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

/// A tree node: its entries' rows in one flat array beside their
/// payloads or children. The arrays sit behind `Arc`s, inline in the
/// parent's child array, so trees can share them and a visit is one
/// pointer hop per node, none per entry; a shared array is never
/// mutated, only replaced by a modified copy ([`gather`]).
///
/// Queries read a node's rows [`LANES`] at a time ([`scan`]): points
/// by squared distance, boxes by squared MINDIST. Each lane adds its
/// terms in axis order from 0.0, the order of a one-row sum, so every
/// distance, bound and tie keeps the bits it had when each entry was
/// its own `Vec`; the lanes only overlap their dependency chains.
#[derive(Debug, Clone)]
enum Node<T> {
    /// Points row-major, `dim` values a row, and their payloads.
    Leaf {
        points: Arc<[f64]>,
        payloads: Arc<[T]>,
    },
    /// The children's boxes, `2·dim` values a row (min corner, then
    /// max corner), and the children.
    Inner {
        boxes: Arc<[f64]>,
        children: Arc<[Node<T>]>,
    },
}

impl<T> Node<T> {
    fn empty() -> Node<T> {
        Node::Leaf {
            points: Arc::new([]),
            payloads: Arc::new([]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { payloads, .. } => payloads.len(),
            Node::Inner { children, .. } => children.len(),
        }
    }

    /// Writes the node's bounding box row into `out` (`2·dim` values:
    /// min corner, then max corner), each value folded over the node's
    /// rows in order from the first. An empty node (only ever a root)
    /// writes nothing.
    fn bounds_into(&self, dim: usize, out: &mut [f64]) {
        let (rows, width) = match self {
            Node::Leaf { points, .. } => (points, dim),
            Node::Inner { boxes, .. } => (boxes, 2 * dim),
        };
        let (lo, hi) = out.split_at_mut(dim);
        let mut rows = rows.chunks_exact(width);
        let Some(first) = rows.next() else {
            return;
        };
        // A box's max corner starts at `dim`, a point is both corners.
        let max_at = width - dim;
        lo.copy_from_slice(&first[..dim]);
        hi.copy_from_slice(&first[max_at..]);
        for r in rows {
            for (l, &v) in lo.iter_mut().zip(&r[..dim]) {
                *l = l.min(v);
            }
            for (h, &v) in hi.iter_mut().zip(&r[max_at..]) {
                *h = h.max(v);
            }
        }
    }

    /// Calls `f` on every (point, payload) beneath the node, children
    /// in order.
    fn each_entry(&self, dim: usize, f: &mut impl FnMut(&[f64], &T)) {
        match self {
            Node::Leaf { points, payloads } => {
                for (p, t) in points.chunks_exact(dim).zip(payloads.iter()) {
                    f(p, t);
                }
            }
            Node::Inner { children, .. } => {
                for child in children.iter() {
                    child.each_entry(dim, f);
                }
            }
        }
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
            root: Node::empty(),
        }
    }

    /// Creates an empty tree with the default fan-out.
    pub fn with_dim(dim: usize) -> RTree<T> {
        RTree::new(dim, RTreeConfig::default())
    }

    /// Builds a tree from a batch of points in one pass using
    /// sort-tile-recursive (STR) packing (Leutenegger et al.). The
    /// points are borrowed: each is copied once, into its leaf.
    ///
    /// Each level is tiled on the [`STR_TILE_AXES`] axes along which
    /// its entries spread widest (points at the leaf level, node-box
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
    pub fn bulk_load<P: AsRef<[f64]>>(
        dim: usize,
        config: RTreeConfig,
        entries: Vec<(P, T)>,
    ) -> RTree<T> {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            config.min_entries >= 1 && config.min_entries * 2 <= config.max_entries,
            "need 1 <= min_entries <= max_entries/2"
        );
        // Finiteness is a caller contract, checked in debug builds:
        // every call site (feature extraction, snapshot decode) has
        // already validated it, and an O(n·d) rescan here is measurable
        // on the snapshot load path at 10⁵ entries. The O(n) length
        // check keeps every leaf row `dim` wide.
        for (p, _) in &entries {
            assert_eq!(p.as_ref().len(), dim, "point dimension mismatch");
            debug_assert!(
                p.as_ref().iter().all(|v| v.is_finite()),
                "point must be finite"
            );
        }
        let len = entries.len();
        let point = |i: usize| entries[i].0.as_ref();
        // Tile indices, not entries: the sorts move one machine word
        // per element, and each point is copied once, into its leaf.
        let mut level: Vec<Node<T>> =
            str_pack((0..len).collect(), dim, config.max_entries, &|&i, axis| {
                point(i)[axis]
            })
            .iter()
            .map(|g| {
                let (points, payloads) = gather(
                    dim,
                    g.len(),
                    |k| g[k],
                    |i, out| out.copy_from_slice(point(i)),
                    |i| &entries[i].1,
                );
                Node::Leaf { points, payloads }
            })
            .collect();
        let width = 2 * dim;
        while level.len() > 1 {
            let mut level_boxes = vec![0.0; level.len() * width];
            for (node, out) in level.iter().zip(level_boxes.chunks_exact_mut(width)) {
                node.bounds_into(dim, out);
            }
            let level_box = |i| row(&level_boxes, width, i);
            level = str_pack(
                (0..level.len()).collect(),
                dim,
                config.max_entries,
                &|&i, axis| center(level_box(i), axis),
            )
            .iter()
            .map(|g| {
                let (boxes, children) = gather(
                    width,
                    g.len(),
                    |k| g[k],
                    |i, out| out.copy_from_slice(level_box(i)),
                    |i| &level[i],
                );
                Node::Inner { boxes, children }
            })
            .collect();
        }
        RTree {
            config,
            dim,
            len,
            root: level.pop().unwrap_or_else(Node::empty),
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
        while let Node::Inner { children, .. } = node {
            h += 1;
            node = &children[0];
        }
        h
    }

    /// Inserts a point with payload; the point is borrowed and copied
    /// into its leaf. The nodes on the path from the root to the
    /// chosen leaf (and any a split creates) are copied; every other
    /// node stays shared with clones of this tree.
    pub fn insert(&mut self, point: impl AsRef<[f64]>, payload: T) {
        let point = point.as_ref();
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        assert!(point.iter().all(|v| v.is_finite()), "point must be finite");
        self.len += 1;
        let dim = self.dim;
        self.root = match Self::insert_rec(&self.root, point, &payload, &self.config, dim) {
            (node, None) => node,
            // Root split: grow the tree.
            (a, Some(b)) => {
                let pair = [&a, &b];
                let (boxes, children) = gather(
                    2 * dim,
                    2,
                    |k| k,
                    |i, out| pair[i].bounds_into(dim, out),
                    |i| pair[i],
                );
                Node::Inner { boxes, children }
            }
        };
    }

    /// Recursive insert: the node's modified copy, and a second node
    /// when it split and the parent must absorb two nodes instead of
    /// one.
    fn insert_rec(
        node: &Node<T>,
        point: &[f64],
        payload: &T,
        config: &RTreeConfig,
        dim: usize,
    ) -> (Node<T>, Option<Node<T>>) {
        match node {
            Node::Leaf { points, payloads } => {
                let n = payloads.len();
                assemble(
                    n + 1,
                    dim,
                    dim,
                    config,
                    |i, out| out.copy_from_slice(if i < n { row(points, dim, i) } else { point }),
                    |i| if i < n { &payloads[i] } else { payload },
                    |points, payloads| Node::Leaf { points, payloads },
                )
            }
            Node::Inner { boxes, children } => {
                let best = choose_subtree(boxes, dim, point);
                let (a, b) = Self::insert_rec(&children[best], point, payload, config, dim);
                // The children with `best` replaced by `a`, and `b`
                // appended; the new ones' boxes are computed afresh.
                let n = children.len();
                let fresh = |i: usize| {
                    if i == best {
                        Some(&a)
                    } else if i == n {
                        b.as_ref()
                    } else {
                        None
                    }
                };
                let width = 2 * dim;
                assemble(
                    n + usize::from(b.is_some()),
                    dim,
                    width,
                    config,
                    |i, out| match fresh(i) {
                        Some(c) => c.bounds_into(dim, out),
                        None => out.copy_from_slice(row(boxes, width, i)),
                    },
                    |i| fresh(i).unwrap_or_else(|| &children[i]),
                    |boxes, children| Node::Inner { boxes, children },
                )
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
        let mut orphans: Vec<Node<T>> = Vec::new();
        let (removed, root) = Self::remove_rec(
            &self.root,
            point,
            &pred,
            self.config.min_entries,
            self.dim,
            &mut orphans,
        )?;
        let removed = removed.clone();
        self.root = root;
        self.len -= 1;
        // Collapse a root with a single inner child.
        while let Node::Inner { children, .. } = &self.root {
            let [child] = &children[..] else {
                break;
            };
            self.root = child.clone();
        }
        // Reinserting leaves the count unchanged.
        let len = self.len;
        for orphan in &orphans {
            orphan.each_entry(self.dim, &mut |p, t| self.insert(p, t.clone()));
        }
        self.len = len;
        Some(removed)
    }

    /// Recursive remove. `node` itself is left as it is (subtrees
    /// that are probed but do not hold the point stay shared); on a
    /// hit, returns the payload and the node's modified copy.
    fn remove_rec<'n>(
        node: &'n Node<T>,
        point: &[f64],
        pred: &impl Fn(&T) -> bool,
        min_entries: usize,
        dim: usize,
        orphans: &mut Vec<Node<T>>,
    ) -> Option<(&'n T, Node<T>)> {
        match node {
            Node::Leaf { points, payloads } => {
                let pos = points
                    .chunks_exact(dim)
                    .zip(payloads.iter())
                    .position(|(p, t)| p == point && pred(t))?;
                let (points, rest) = gather(
                    dim,
                    payloads.len() - 1,
                    |k| k + usize::from(k >= pos),
                    |i, out| out.copy_from_slice(row(points, dim, i)),
                    |i| &payloads[i],
                );
                Some((
                    &payloads[pos],
                    Node::Leaf {
                        points,
                        payloads: rest,
                    },
                ))
            }
            Node::Inner { boxes, children } => {
                let width = 2 * dim;
                for (i, (b, child)) in boxes.chunks_exact(width).zip(children.iter()).enumerate() {
                    if !contains(b, point) {
                        continue;
                    }
                    let Some((t, child)) =
                        Self::remove_rec(child, point, pred, min_entries, dim, orphans)
                    else {
                        continue;
                    };
                    let n = children.len();
                    let (boxes, children) = if child.len() < min_entries {
                        // Condense: orphan the whole child.
                        orphans.push(child);
                        gather(
                            width,
                            n - 1,
                            |k| k + usize::from(k >= i),
                            |c, out| out.copy_from_slice(row(boxes, width, c)),
                            |c| &children[c],
                        )
                    } else {
                        gather(
                            width,
                            n,
                            |k| k,
                            |c, out| {
                                if c == i {
                                    child.bounds_into(dim, out);
                                } else {
                                    out.copy_from_slice(row(boxes, width, c));
                                }
                            },
                            |c| if c == i { &child } else { &children[c] },
                        )
                    };
                    return Some((t, Node::Inner { boxes, children }));
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
        let (dim, r2) = (self.dim, radius * radius);
        // hotpath: allow(hot-alloc) — traversal stack and hit list are the query's working set
        let mut out = Vec::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            stats.nodes_visited += 1;
            match node {
                Node::Leaf { points, payloads } => {
                    stats.leaves_visited += 1;
                    stats.entries_checked += payloads.len();
                    scan(points, dim, center, r2, point_term, |i, d2| {
                        // `scan` passes a NaN sum on; the ball has none.
                        if d2 <= r2 {
                            out.push((row(points, dim, i), &payloads[i], d2));
                        }
                        r2
                    });
                }
                Node::Inner { boxes, children } => {
                    stats.entries_checked += children.len();
                    scan(boxes, 2 * dim, center, r2, box_term, |i, _| {
                        stack.push(&children[i]);
                        r2
                    });
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
    /// top `k`, not even on a tie. A leaf's points are scored against
    /// the k-th distance held when their group of [`LANES`] starts,
    /// and stop accumulating once all of the group has passed it (see
    /// [`scan`]). Equal distances come out in payload order, as in
    /// [`RTree::within_distance`], so the answer depends only on the
    /// stored points; the nodes expanded are those whose MINDIST is at
    /// most the final k-th distance.
    pub fn knn(&self, center: &[f64], k: usize, stats: &mut QueryStats) -> Vec<(&[f64], &T, f64)>
    where
        T: Ord,
    {
        if k == 0 {
            // hotpath: allow(hot-alloc) — the hit list is the returned artifact; the node queue and the k best are the query's working set
            return Vec::new();
        }
        let dim = self.dim;
        let mut queue = BinaryHeap::new();
        queue.push(Reverse((0, Carried(&self.root))));
        // `k` comes from the request: a top-k past the stored count
        // must not size the allocation.
        let mut best: BinaryHeap<Hit<'_, T>> = BinaryHeap::with_capacity(k.min(self.len));
        while let Some(Reverse((min_d2, Carried(node)))) = queue.pop() {
            let bound = kth(&best, k);
            if f64::from_bits(min_d2) > bound {
                break;
            }
            stats.nodes_visited += 1;
            match node {
                Node::Leaf { points, payloads } => {
                    stats.leaves_visited += 1;
                    stats.entries_checked += payloads.len();
                    scan(points, dim, center, bound, point_term, |i, d2| {
                        let hit = (d2.to_bits(), &payloads[i], Carried(row(points, dim, i)));
                        if best.len() < k {
                            best.push(hit);
                        } else if let Some(mut worst) = best.peek_mut() {
                            if hit < *worst {
                                *worst = hit;
                            }
                        }
                        kth(&best, k)
                    });
                }
                Node::Inner { boxes, children } => {
                    stats.entries_checked += children.len();
                    scan(boxes, 2 * dim, center, bound, box_term, |i, d2| {
                        queue.push(Reverse((d2.to_bits(), Carried(&children[i]))));
                        bound
                    });
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
    /// skips a pair only when its squared MAXDIST ([`max_dist_sq`])
    /// cannot exceed the best pair found so far. Rounding is monotone,
    /// so no pair of points beneath a skipped pair is farther apart in
    /// floating point either.
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
        let (dim, width) = (self.dim, 2 * self.dim);
        // hotpath: allow(hot-alloc) — a remove recomputes a diameter only when it takes away an end of one
        let mut root_box = vec![0.0; width];
        self.root.bounds_into(dim, &mut root_box);
        let root = (root_box.as_slice(), &self.root);
        let mut pairs = BinaryHeap::new();
        pairs.push((
            max_dist_sq(corners(root.0), root.0).to_bits(),
            Carried((root, root)),
        ));
        while let Some((bound, Carried((a, b)))) = pairs.pop() {
            if !beats(f64::from_bits(bound), best) {
                break;
            }
            // A node paired with itself: each pair of its children (or
            // points) once.
            let same = std::ptr::eq(a.1, b.1);
            if let (Node::Leaf { points: pa, .. }, Node::Leaf { points: pb, .. }) = (a.1, b.1) {
                for (i, p) in pa.chunks_exact(dim).enumerate() {
                    for q in pb.chunks_exact(dim).skip(if same { i + 1 } else { 0 }) {
                        best = f64::max(best, dist_sq(p, q));
                    }
                }
                continue;
            }
            // Descend both sides. Leaves share one depth, so they meet
            // leaves; should they not, a leaf side stands for itself.
            fn children<'a, T>(
                (side_box, node): (&'a [f64], &'a Node<T>),
            ) -> (&'a [f64], &'a [Node<T>]) {
                match node {
                    Node::Inner { boxes, children } => (boxes, children),
                    Node::Leaf { .. } => (side_box, std::slice::from_ref(node)),
                }
            }
            let ((xb, xs), (yb, ys)) = (children(a), children(b));
            for (i, x) in xb.chunks_exact(width).zip(xs).enumerate() {
                for y in yb
                    .chunks_exact(width)
                    .zip(ys)
                    .skip(if same { i } else { 0 })
                {
                    let bound = max_dist_sq(corners(x.0), y.0);
                    if beats(bound, best) {
                        pairs.push((bound.to_bits(), Carried((x, y))));
                    }
                }
            }
        }
        f64::sqrt(best).max(at_least)
    }

    /// The largest Euclidean distance from `q` to a stored point, bit
    /// for bit the maximum of `sqrt(Σ (qᵢ − pᵢ)²)` summed in axis
    /// order, whenever that maximum is at least `at_least`; otherwise
    /// some value below `at_least` (0 for an empty tree).
    ///
    /// Nodes are visited farthest first by squared MAXDIST from `q`
    /// ([`max_dist_sq`], with `q` as a degenerate box), and one is
    /// skipped only when its bound cannot reach `at_least` or exceed
    /// the farthest point found so far. A bound equal to `at_least` is
    /// kept, so a point exactly `at_least` away is found. Rounding is
    /// monotone, so no point inside a skipped box is farther in
    /// floating point either.
    pub fn farthest(&self, q: &[f64], at_least: f64) -> f64 {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut best = 0.0;
        let beats = |bound: f64, best: f64| bound > best && bound.sqrt() >= at_least;
        let mut nodes = BinaryHeap::new();
        nodes.push((f64::INFINITY.to_bits(), Carried(&self.root)));
        while let Some((bound, Carried(node))) = nodes.pop() {
            if !beats(f64::from_bits(bound), best) {
                break;
            }
            match node {
                Node::Leaf { points, .. } => {
                    for p in points.chunks_exact(self.dim) {
                        best = f64::max(best, dist_sq(q, p));
                    }
                }
                Node::Inner { boxes, children } => {
                    for (b, child) in boxes.chunks_exact(2 * self.dim).zip(children.iter()) {
                        let bound = max_dist_sq((q, q), b);
                        if beats(bound, best) {
                            nodes.push((bound.to_bits(), Carried(child)));
                        }
                    }
                }
            }
        }
        best.sqrt()
    }

    /// Iterates over all stored (point, payload) pairs.
    pub fn iter(&self) -> Vec<(&[f64], &T)> {
        // hotpath: allow(hot-alloc) — traversal stack and output list are the returned artifact
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf { points, payloads } => {
                    out.extend(points.chunks_exact(self.dim).zip(payloads.iter()));
                }
                Node::Inner { children, .. } => stack.extend(children.iter()),
            }
        }
        out
    }

    /// Checks structural invariants (for tests): bounding boxes cover
    /// children, node occupancy within [min, max] except the root,
    /// uniform leaf depth.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn depth_of<T>(node: &Node<T>) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Inner { children, .. } => 1 + depth_of(&children[0]),
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
            let n = node.len();
            if !is_root && n < config.min_entries {
                return Err(format!("node underflow: {n}"));
            }
            if n > config.max_entries {
                return Err(format!("node overflow: {n}"));
            }
            match node {
                Node::Leaf { points, .. } => {
                    if depth != leaf_depth {
                        return Err(format!("leaf at depth {depth}, expected {leaf_depth}"));
                    }
                    if points.len() != n * dim {
                        return Err(format!("{} point values for {n} rows", points.len()));
                    }
                    Ok(n)
                }
                Node::Inner { boxes, children } => {
                    if boxes.len() != n * 2 * dim {
                        return Err(format!("{} box values for {n} rows", boxes.len()));
                    }
                    let mut total = 0;
                    for (b, child) in boxes.chunks_exact(2 * dim).zip(children.iter()) {
                        let mut child_box = vec![0.0; 2 * dim];
                        child.bounds_into(dim, &mut child_box);
                        let (lo, hi) = corners(&child_box);
                        if !(contains(b, lo) && contains(b, hi)) {
                            return Err("bounding box does not cover child".into());
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

/// Rows a query scores at once: each is its own dependency chain.
const LANES: usize = 4;

/// Axes a group of [`LANES`] rows sums between two checks of whether
/// all of them have passed the bound.
const BLOCK: usize = 8;

/// Scores the rows of `rows` (`width` values each) against the query
/// `q`, [`LANES`] at a time, and hands `keep(i, d2)` each row `i` whose
/// squared distance `d2` is not above the bound held at its group's
/// start: `bound` for the first group, then what `keep` last returned.
/// `term(row, j, x)` is a row's term on axis `j`, whose query value is
/// `x`. A group short of rows repeats its last one, so groups of one
/// to three rows take the same path.
///
/// Each lane sums its terms in axis order from 0.0, exactly as
/// [`dist_sq`] does, so a kept distance has the one-row sum's bits.
/// A group stops early only when all its lanes exceed the bound,
/// checked every [`BLOCK`] axes, and then none of its rows is kept.
/// The terms are non-negative and rounding is monotone, so a lane past
/// the bound stays past it: the rows kept, and their order, are those
/// a one-row sum checked against the same bound would keep.
fn scan(
    rows: &[f64],
    width: usize,
    q: &[f64],
    mut bound: f64,
    term: impl Fn(&[f64], usize, f64) -> f64,
    mut keep: impl FnMut(usize, f64) -> f64,
) {
    let n = rows.len() / width;
    for first in (0..n).step_by(LANES) {
        let last = n.min(first + LANES) - 1;
        let group: [&[f64]; LANES] =
            std::array::from_fn(|lane| row(rows, width, last.min(first + lane)));
        let group_bound = bound;
        for (lane, d2) in lane_sums(&group, q, group_bound, &term)
            .into_iter()
            .enumerate()
            .take(last + 1 - first)
        {
            if d2 > group_bound {
                continue;
            }
            bound = keep(first + lane, d2);
        }
    }
}

/// The [`LANES`] rows' sums of `term` over the axes of `q`, each in
/// axis order, stopping after the first block of [`BLOCK`] axes that
/// leaves every sum above `bound`.
#[inline(always)]
fn lane_sums(
    rows: &[&[f64]; LANES],
    q: &[f64],
    bound: f64,
    term: &impl Fn(&[f64], usize, f64) -> f64,
) -> [f64; LANES] {
    let mut sums = [0.0; LANES];
    for (b, block) in q.chunks(BLOCK).enumerate() {
        for (i, &x) in block.iter().enumerate() {
            let j = b * BLOCK + i;
            for (sum, row) in sums.iter_mut().zip(rows) {
                *sum += term(row, j, x);
            }
        }
        if sums.iter().all(|&s| s > bound) {
            break;
        }
    }
    sums
}

/// Axis `j`'s term of a point row's squared distance from `x`.
#[inline(always)]
fn point_term(p: &[f64], j: usize, x: f64) -> f64 {
    let d = p[j] - x;
    d * d
}

/// Axis `j`'s term of a box row's squared MINDIST (Roussopoulos et
/// al.) from `x`: the gap `max(lo − x, x − hi, 0)`, squared. Below the
/// box the gap is `lo − x`, above it `x − hi`, and inside it (or for a
/// NaN `x`) +0, so the term has the bits of the three-way form. Spelled
/// with comparisons, each max is one instruction.
#[inline(always)]
fn box_term(b: &[f64], j: usize, x: f64) -> f64 {
    let (below, above) = (b[j] - x, x - b[b.len() / 2 + j]);
    let gap = if below > above { below } else { above };
    let d = if gap > 0.0 { gap } else { 0.0 };
    d * d
}

/// A box row's min and max corners.
fn corners(b: &[f64]) -> (&[f64], &[f64]) {
    b.split_at(b.len() / 2)
}

/// Midpoint of a box along `axis` (the sort key of STR bulk loading
/// above the leaves).
fn center(b: &[f64], axis: usize) -> f64 {
    let (lo, hi) = corners(b);
    0.5 * (lo[axis] + hi[axis])
}

/// Sum of a box's side lengths (its "margin"): the cost node splits
/// minimize and the insert descent breaks ties by.
fn margin(b: &[f64]) -> f64 {
    let (lo, hi) = corners(b);
    lo.iter().zip(hi).map(|(a, b)| b - a).sum()
}

/// How much a box's margin grows to cover `p`: the L1 distance from
/// the point to the box, zero when the point is inside. Unlike volume
/// it stays informative when the box is flat on some axis, as many
/// feature-space boxes are.
fn margin_enlargement(b: &[f64], p: &[f64]) -> f64 {
    let (lo, hi) = corners(b);
    lo.iter()
        .zip(hi)
        .zip(p)
        .map(|((lo, hi), x)| (lo - x).max(x - hi).max(0.0))
        .sum()
}

/// Whether a box contains the point (boundary inclusive).
fn contains(b: &[f64], p: &[f64]) -> bool {
    let (lo, hi) = corners(b);
    lo.iter()
        .zip(hi)
        .zip(p)
        .all(|((lo, hi), x)| lo <= x && x <= hi)
}

/// Squared MAXDIST between two boxes, the first given by its corners
/// (a point is both): the squared distance of their farthest corners.
/// Rounding is monotone, so no two points inside the boxes are farther
/// apart in floating point either ([`RTree::diameter`] and
/// [`RTree::farthest`] prune on this bound).
fn max_dist_sq((a_lo, a_hi): (&[f64], &[f64]), b: &[f64]) -> f64 {
    let (b_lo, b_hi) = corners(b);
    let mut acc = 0.0;
    for d in 0..a_lo.len() {
        let far = (a_hi[d] - b_lo[d]).abs().max((b_hi[d] - a_lo[d]).abs());
        acc += far * far;
    }
    acc
}

/// Row `i` of a flat array of `width`-value rows.
fn row(rows: &[f64], width: usize, i: usize) -> &[f64] {
    &rows[i * width..][..width]
}

/// A node's two arrays, built from `count` entries: the k-th is entry
/// `pick(k)` of a list whose entry `i` writes its `width`-value row
/// with `write(i, out)` and has the item `item(i)`. Each array is
/// allocated once, at its final size, and filled in place: no `Vec` is
/// filled and then copied into the `Arc`. This is the one place path
/// copying allocates.
fn gather<'a, E: Clone + 'a>(
    width: usize,
    count: usize,
    pick: impl Fn(usize) -> usize,
    write: impl Fn(usize, &mut [f64]),
    item: impl Fn(usize) -> &'a E,
) -> (Arc<[f64]>, Arc<[E]>) {
    // hotpath: allow(hot-alloc) — path copying: one array per node an update modifies
    let mut rows: Arc<[f64]> = std::iter::repeat_n(0.0, count * width).collect();
    // Always taken: nothing else holds the new array yet.
    if let Some(rows) = Arc::get_mut(&mut rows) {
        for (k, out) in rows.chunks_exact_mut(width).enumerate() {
            write(pick(k), out);
        }
    }
    let items = (0..count).map(|k| item(pick(k))).cloned().collect();
    (rows, items)
}

/// The node holding `count` entries, entry `i` with the row
/// `write(i, ·)` and the item `item(i)`; past `max_entries`, the two
/// nodes [`split`] cuts them into. A row is `width` wide: a point
/// (`dim`), or a box (`2·dim`). `node` makes a node of a row array and
/// an item array.
fn assemble<'a, E: Clone + 'a, T>(
    count: usize,
    dim: usize,
    width: usize,
    config: &RTreeConfig,
    write: impl Fn(usize, &mut [f64]),
    item: impl Fn(usize) -> &'a E,
    node: impl Fn(Arc<[f64]>, Arc<[E]>) -> Node<T>,
) -> (Node<T>, Option<Node<T>>) {
    let (rows, items) = gather(width, count, |k| k, write, item);
    if count <= config.max_entries {
        return (node(rows, items), None);
    }
    let half = |entries: &[usize]| {
        let (half_rows, half_items) = gather(
            width,
            entries.len(),
            |k| entries[k],
            |i, out| out.copy_from_slice(row(&rows, width, i)),
            |i| &items[i],
        );
        node(half_rows, half_items)
    };
    let (a, b) = split(&rows, dim, width, config.min_entries);
    (half(&a), Some(half(&b)))
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

/// Splits the entries of an overflowing node, whose rows (`width`
/// values: a point, or a box with its max corner from `dim` on) are
/// `rows`, in two, and returns each half's entries. They are sorted
/// along their widest axis ([`axes_by_spread`]) and cut where the two
/// halves' margins sum least, with at least `min` entries on each
/// side; of equal sums the first cut wins.
fn split(rows: &[f64], dim: usize, width: usize, min: usize) -> (Vec<usize>, Vec<usize>) {
    let count = rows.len() / width;
    let bounds = |i: usize, axis| {
        let r = row(rows, width, i);
        (r[axis], r[width - dim + axis])
    };
    // hotpath: allow(hot-alloc) — per-split sweep state, sized by the fan-out and the dimension
    let mut entries: Vec<usize> = (0..count).collect();
    // Twice the center: it sorts entries as the center does.
    let key = |&i: &usize, axis| {
        let (lo, hi) = bounds(i, axis);
        lo + hi
    };
    let axis = axes_by_spread(&entries, dim, &key)[0];
    entries.sort_by(|a, b| key(a, axis).total_cmp(&key(b, axis)));
    let (mut lo, mut hi) = (vec![f64::INFINITY; dim], vec![f64::NEG_INFINITY; dim]);
    // The margin of `entries[i..]`, for every cut `i` a split may use.
    let mut right = vec![0.0; count];
    for i in (min..count).rev() {
        right[i] = widen(&mut lo, &mut hi, |axis| bounds(entries[i], axis));
    }
    lo.fill(f64::INFINITY);
    hi.fill(f64::NEG_INFINITY);
    let mut best = (f64::INFINITY, min);
    for (i, &e) in entries[..count - min].iter().enumerate() {
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

/// ChooseSubtree: the child whose box (a row of `boxes`) needs the
/// least margin enlargement to cover `point`, ties to the smaller
/// margin, then to the lower index.
fn choose_subtree(boxes: &[f64], dim: usize, point: &[f64]) -> usize {
    boxes
        .chunks_exact(2 * dim)
        .enumerate()
        .map(|(i, b)| (margin_enlargement(b, point), margin(b), i))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)))
        .map_or(0, |(_, _, i)| i)
}

/// The squared Euclidean distance, summed in axis order: the sum every
/// lane of [`scan`] reproduces bit for bit.
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

    /// Addresses of the row array of every node reachable from `node`
    /// (a node's item array is copied with its rows).
    fn arrays<T>(node: &Node<T>, out: &mut Vec<*const u8>) {
        match node {
            Node::Leaf { points, .. } => out.push(Arc::as_ptr(points) as *const u8),
            Node::Inner { boxes, children } => {
                out.push(Arc::as_ptr(boxes) as *const u8);
                for child in children.iter() {
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

    /// `farthest` finds nothing in an empty tree, and the one point of
    /// a single-point tree, a tie with `at_least` included.
    #[test]
    fn farthest_on_empty_and_single_point_trees() {
        let empty: RTree<usize> = RTree::with_dim(3);
        assert_eq!(empty.farthest(&[1.0, 2.0, 3.0], 0.0), 0.0);
        assert!(empty.farthest(&[1.0, 2.0, 3.0], 1.0) < 1.0);
        let mut one: RTree<usize> = RTree::with_dim(2);
        one.insert(vec![3.0, 4.0], 0);
        assert_eq!(one.farthest(&[0.0, 0.0], 0.0), 5.0);
        assert_eq!(one.farthest(&[0.0, 0.0], 5.0), 5.0);
        assert!(one.farthest(&[0.0, 0.0], 5.5) < 5.5);
        assert_eq!(one.farthest(&[3.0, 4.0], 0.0), 0.0);
    }

    /// Splits cut along the widest axis: points spread along axis 2
    /// only (axes 0 and 1 constant) are split into two runs on that
    /// axis, not across it.
    #[test]
    fn splits_cut_along_the_widest_axis() {
        let pts: Vec<f64> = (0..17).flat_map(|i| [1.0, 1.0, i as f64]).collect();
        let (a, b) = split(&pts, 3, 3, 6);
        assert!(a.len() >= 6 && b.len() >= 6);
        let last_a = a.iter().map(|&i| pts[3 * i + 2]).fold(f64::MIN, f64::max);
        assert!(
            b.iter().all(|&i| pts[3 * i + 2] > last_a),
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

    /// The squared MINDIST of one box row from `q`, through the kernel.
    fn min_dist_sq(b: &[f64], q: &[f64]) -> f64 {
        let mut d2 = f64::NAN;
        scan(b, b.len(), q, f64::INFINITY, box_term, |_, d| {
            d2 = d;
            f64::INFINITY
        });
        d2
    }

    /// MINDIST by the three-way branch: `lo − x` below the box, `x −
    /// hi` above it, else 0.
    fn three_way_min_dist_sq(b: &[f64], p: &[f64]) -> f64 {
        let (lo, hi) = corners(b);
        lo.iter()
            .zip(hi)
            .zip(p)
            .map(|((lo, hi), x)| {
                let d = if x < lo {
                    lo - x
                } else if x > hi {
                    x - hi
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    #[test]
    fn min_dist_cases() {
        let r = [0.0, 0.0, 2.0, 2.0];
        // Inside: zero.
        assert_eq!(min_dist_sq(&r, &[1.0, 1.0]), 0.0);
        // Face: distance along one axis.
        assert_eq!(min_dist_sq(&r, &[3.0, 1.0]), 1.0);
        // Corner: Euclidean to the corner.
        assert_eq!(min_dist_sq(&r, &[3.0, 3.0]), 2.0);
        // Boundary: zero, and +0 rather than −0.
        assert_eq!(min_dist_sq(&r, &[2.0, 2.0]).to_bits(), 0.0f64.to_bits());
    }

    /// `scan` keeps exactly the rows a one-row sum keeps against the
    /// same bound, at `dist_sq`'s bits and in row order, for groups of
    /// one to four rows at every feature space's dimension, with
    /// bounds that drop no row, some rows and every row; box rows
    /// score the three-way MINDIST's bits.
    #[test]
    fn lanes_match_one_row_sums() {
        for dim in [3usize, 5, 8, 10, 32, 64] {
            let q = pseudo_random_points(1, dim, dim as u64).remove(0);
            for n in 1..=4usize {
                let pts = pseudo_random_points(n, dim, 31 * n as u64 + dim as u64);
                let exact: Vec<f64> = pts.iter().map(|p| dist_sq(p, &q)).collect();
                let (near, far) = exact.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| {
                    (lo.min(d), hi.max(d))
                });
                for bound in [f64::INFINITY, 0.5 * (near + far), 0.5 * near] {
                    let mut kept = Vec::new();
                    scan(&pts.concat(), dim, &q, bound, point_term, |i, d2| {
                        kept.push((i, d2.to_bits()));
                        bound
                    });
                    let want: Vec<(usize, u64)> = exact
                        .iter()
                        .enumerate()
                        .filter(|&(_, &d)| d <= bound)
                        .map(|(i, d)| (i, d.to_bits()))
                        .collect();
                    assert_eq!(kept, want, "dim {dim}, {n} rows, bound {bound}");
                }
                // Boxes spanned by the points and their mirror images
                // through the query's neighborhood: the query falls
                // inside some boxes on some axes and outside on others.
                let boxes: Vec<Vec<f64>> = pts
                    .iter()
                    .map(|p| {
                        let other: Vec<f64> =
                            p.iter().zip(&q).map(|(a, x)| 2.0 * x - a + 1.0).collect();
                        let lo = p.iter().zip(&other).map(|(a, b)| a.min(*b));
                        let hi = p.iter().zip(&other).map(|(a, b)| a.max(*b));
                        lo.chain(hi).collect()
                    })
                    .collect();
                let mut got = Vec::new();
                scan(
                    &boxes.concat(),
                    2 * dim,
                    &q,
                    f64::INFINITY,
                    box_term,
                    |i, d2| {
                        got.push((i, d2.to_bits()));
                        f64::INFINITY
                    },
                );
                let want: Vec<(usize, u64)> = boxes
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (i, three_way_min_dist_sq(b, &q).to_bits()))
                    .collect();
                assert_eq!(got, want, "dim {dim}, {n} boxes");
            }
        }
    }

    /// A lower bound returned by `keep` applies from the next group
    /// on: the rows of the group in flight are judged by the bound
    /// held at its start.
    #[test]
    fn lanes_take_the_new_bound_at_the_next_group() {
        // Squared distances 100, 81, 64, 49 | 36, 25 from the origin.
        let rows: Vec<f64> = (0..6).map(|i| 10.0 - i as f64).collect();
        let mut kept = Vec::new();
        scan(&rows, 1, &[0.0], f64::INFINITY, point_term, |i, _| {
            kept.push(i);
            30.0
        });
        // The first group keeps all four under the unbounded start;
        // the second is held to 30, which drops 36 and keeps 25.
        assert_eq!(kept, [0, 1, 2, 3, 5]);
    }

    #[test]
    fn point_box_is_degenerate() {
        let leaf: Node<u32> = Node::Leaf {
            points: Arc::new([1.0, 2.0, 3.0]),
            payloads: Arc::new([0]),
        };
        let mut b = vec![0.0; 6];
        leaf.bounds_into(3, &mut b);
        assert_eq!(b, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert_eq!(margin(&b), 0.0);
        assert!(contains(&b, &[1.0, 2.0, 3.0]));
        assert!(!contains(&b, &[1.0, 2.0, 3.1]));
    }

    #[test]
    fn margin_enlargement_is_the_l1_distance_to_the_box() {
        let a = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(margin_enlargement(&a, &[3.0, 0.5]), 2.0);
        assert_eq!(margin_enlargement(&a, &[-1.0, 3.0]), 3.0);
        // A point inside (or on the boundary) costs nothing.
        assert_eq!(margin_enlargement(&a, &[0.2, 1.0]), 0.0);
        // A flat box still tells points apart.
        let flat = [0.0, 0.0, 4.0, 0.0];
        assert!(margin_enlargement(&flat, &[1.0, 0.5]) < margin_enlargement(&flat, &[1.0, 2.0]));
    }

    #[test]
    fn max_dist_is_between_farthest_corners() {
        let a = [0.0, 0.0, 1.0, 1.0];
        let b = [3.0, -1.0, 4.0, 0.5];
        // x: 4 − 0; y: max(0.5 − 0, 1 − (−1)) = 2.
        assert_eq!(max_dist_sq(corners(&a), &b), 16.0 + 4.0);
        assert_eq!(max_dist_sq(corners(&a), &b), max_dist_sq(corners(&b), &a));
        // A box against itself: its squared diagonal.
        assert_eq!(max_dist_sq(corners(&a), &a), 2.0);
        // A point against a box: its farthest corner.
        assert_eq!(max_dist_sq((&[2.0, 0.0], &[2.0, 0.0]), &a), 4.0 + 1.0);
    }

    #[test]
    fn center_is_midpoint() {
        let b = [0.0, 2.0, 4.0, 3.0];
        assert_eq!(center(&b, 0), 2.0);
        assert_eq!(center(&b, 1), 2.5);
    }

    #[test]
    fn margin_sums_side_lengths() {
        assert_eq!(margin(&[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]), 6.0);
    }
}
