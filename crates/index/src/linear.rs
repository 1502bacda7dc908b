//! Linear-scan baseline with the same query API as the R-tree.

use crate::rtree::{dist_sq, sort_hits};
use crate::stats::QueryStats;

/// A flat list of points, scanned exhaustively for every query. The
/// baseline the index-efficiency experiment compares against.
#[derive(Debug, Clone, Default)]
pub struct LinearScan<T> {
    dim: usize,
    entries: Vec<(Vec<f64>, T)>,
}

impl<T: Clone> LinearScan<T> {
    /// Creates an empty scan structure for `dim`-dimensional points.
    pub fn new(dim: usize) -> LinearScan<T> {
        assert!(dim > 0, "dimension must be positive");
        LinearScan {
            dim,
            entries: Vec::new(),
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a point with payload.
    pub fn insert(&mut self, point: Vec<f64>, payload: T) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        self.entries.push((point, payload));
    }

    /// Removes one matching point; returns its payload.
    pub fn remove(&mut self, point: &[f64], pred: impl Fn(&T) -> bool) -> Option<T> {
        let pos = self
            .entries
            .iter()
            .position(|(p, t)| p.as_slice() == point && pred(t))?;
        Some(self.entries.swap_remove(pos).1)
    }

    /// All points within `radius` of `center`, in the R-tree's hit
    /// order: by distance, ties by payload.
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
        let mut out = self.scan(center, stats);
        out.retain(|hit| hit.2 <= r2);
        sort_hits(&mut out);
        out
    }

    /// The `k` nearest neighbors of `center`, in the R-tree's hit
    /// order: by distance, ties by payload.
    pub fn knn(&self, center: &[f64], k: usize, stats: &mut QueryStats) -> Vec<(&[f64], &T, f64)>
    where
        T: Ord,
    {
        let mut all = self.scan(center, stats);
        sort_hits(&mut all);
        all.truncate(k);
        all
    }

    /// Every entry with its squared distance to `center`.
    fn scan(&self, center: &[f64], stats: &mut QueryStats) -> Vec<(&[f64], &T, f64)> {
        stats.nodes_visited += 1;
        stats.leaves_visited += 1;
        stats.entries_checked += self.entries.len();
        self.entries
            .iter()
            .map(|(p, t)| (p.as_slice(), t, dist_sq(p, center)))
            // hotpath: allow(hot-alloc) — the hit list is the returned artifact
            .collect()
    }

    /// Iterates over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &T)> {
        self.entries.iter().map(|(p, t)| (p.as_slice(), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_queries() {
        let mut s: LinearScan<u32> = LinearScan::new(2);
        s.insert(vec![0.0, 0.0], 0);
        s.insert(vec![1.0, 0.0], 1);
        s.insert(vec![5.0, 5.0], 2);
        assert_eq!(s.len(), 3);

        let mut stats = QueryStats::default();
        let knn = s.knn(&[0.2, 0.0], 2, &mut stats);
        assert_eq!(*knn[0].1, 0);
        assert_eq!(*knn[1].1, 1);
        assert_eq!(stats.entries_checked, 3);

        let ball = s.within_distance(&[0.0, 0.0], 1.5, &mut stats);
        assert_eq!(ball.len(), 2);
    }

    #[test]
    fn remove_works() {
        let mut s: LinearScan<u32> = LinearScan::new(1);
        s.insert(vec![1.0], 7);
        assert_eq!(s.remove(&[1.0], |&t| t == 7), Some(7));
        assert_eq!(s.remove(&[1.0], |&t| t == 7), None);
        assert!(s.is_empty());
    }
}
