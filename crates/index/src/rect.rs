//! Hyper-rectangles for the multidimensional index.

/// An axis-aligned hyper-rectangle in `dim` dimensions, stored as
/// min/max corners (the "tight bounding box represented by the
/// coordinates of its two diagonal vertices" of §2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Vec<f64>,
    /// Maximum corner.
    pub max: Vec<f64>,
}

impl Rect {
    /// A degenerate rectangle covering exactly one point.
    pub fn from_point(p: &[f64]) -> Rect {
        Rect {
            // hotpath: allow(hot-alloc) — the rect owns its bound coordinates
            min: p.to_vec(),
            max: p.to_vec(),
        }
    }

    /// Creates a rectangle from corners. Panics if dimensions differ
    /// or any min exceeds the corresponding max.
    pub fn new(min: Vec<f64>, max: Vec<f64>) -> Rect {
        assert_eq!(min.len(), max.len(), "corner dimensions differ");
        assert!(
            min.iter().zip(&max).all(|(a, b)| a <= b),
            "inverted rectangle corners"
        );
        Rect { min, max }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Midpoint of the rectangle along `axis` (the sort key used by
    /// sort-tile-recursive bulk loading).
    #[inline]
    pub fn center(&self, axis: usize) -> f64 {
        0.5 * (self.min[axis] + self.max[axis])
    }

    /// Whether every coordinate of both corners is finite.
    pub fn is_finite(&self) -> bool {
        self.min.iter().chain(&self.max).all(|v| v.is_finite())
    }

    /// Grows this rectangle to cover `other`.
    pub fn union_in_place(&mut self, other: &Rect) {
        for d in 0..self.dim() {
            self.min[d] = self.min[d].min(other.min[d]);
            self.max[d] = self.max[d].max(other.max[d]);
        }
    }

    /// Sum of side lengths (the "margin"): the cost node splits
    /// minimize and the insert descent breaks ties by.
    pub fn margin(&self) -> f64 {
        self.min.iter().zip(&self.max).map(|(a, b)| b - a).sum()
    }

    /// How much the margin grows to cover `p`: the L1 distance from
    /// the point to the rectangle, zero when the point is inside.
    /// Unlike volume it stays informative when the rectangle is flat
    /// on some axis, as many feature-space boxes are.
    pub fn margin_enlargement(&self, p: &[f64]) -> f64 {
        self.min
            .iter()
            .zip(&self.max)
            .zip(p)
            .map(|((lo, hi), x)| (lo - x).max(x - hi).max(0.0))
            .sum()
    }

    /// Whether the rectangle contains the point (boundary inclusive).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        self.min
            .iter()
            .zip(&self.max)
            .zip(p)
            .all(|((lo, hi), x)| lo <= x && x <= hi)
    }

    /// Squared MINDIST from a point to the rectangle (Roussopoulos et
    /// al.): zero when the point is inside.
    pub fn min_dist_sq(&self, p: &[f64]) -> f64 {
        self.min
            .iter()
            .zip(&self.max)
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

    /// Squared MAXDIST between two rectangles: the squared distance
    /// of their farthest corners. Rounding is monotone, so no two
    /// points inside the rectangles are farther apart in floating
    /// point either ([`crate::RTree::diameter`] prunes on this bound).
    pub fn max_dist_sq(&self, other: &Rect) -> f64 {
        let mut acc = 0.0;
        for d in 0..self.dim() {
            let far = (self.max[d] - other.min[d])
                .abs()
                .max((other.max[d] - self.min[d]).abs());
            acc += far * far;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_rect_is_degenerate() {
        let r = Rect::from_point(&[1.0, 2.0, 3.0]);
        assert_eq!(r.margin(), 0.0);
        assert!(r.contains_point(&[1.0, 2.0, 3.0]));
        assert!(!r.contains_point(&[1.0, 2.0, 3.1]));
    }

    #[test]
    fn margin_enlargement_is_the_l1_distance_to_the_box() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(a.margin_enlargement(&[3.0, 0.5]), 2.0);
        assert_eq!(a.margin_enlargement(&[-1.0, 3.0]), 3.0);
        // A point inside (or on the boundary) costs nothing.
        assert_eq!(a.margin_enlargement(&[0.2, 1.0]), 0.0);
        // A flat box still tells points apart.
        let flat = Rect::new(vec![0.0, 0.0], vec![4.0, 0.0]);
        assert!(flat.margin_enlargement(&[1.0, 0.5]) < flat.margin_enlargement(&[1.0, 2.0]));
    }

    #[test]
    fn max_dist_is_between_farthest_corners() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Rect::new(vec![3.0, -1.0], vec![4.0, 0.5]);
        // x: 4 − 0; y: max(0.5 − 0, 1 − (−1)) = 2.
        assert_eq!(a.max_dist_sq(&b), 16.0 + 4.0);
        assert_eq!(a.max_dist_sq(&b), b.max_dist_sq(&a));
        // A rectangle against itself: its squared diagonal.
        assert_eq!(a.max_dist_sq(&a), 2.0);
    }

    #[test]
    fn min_dist_cases() {
        let r = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        // Inside: zero.
        assert_eq!(r.min_dist_sq(&[1.0, 1.0]), 0.0);
        // Face: distance along one axis.
        assert_eq!(r.min_dist_sq(&[3.0, 1.0]), 1.0);
        // Corner: Euclidean to the corner.
        assert_eq!(r.min_dist_sq(&[3.0, 3.0]), 2.0);
        // Boundary: zero.
        assert_eq!(r.min_dist_sq(&[2.0, 2.0]), 0.0);
    }

    #[test]
    fn center_is_midpoint() {
        let r = Rect::new(vec![0.0, 2.0], vec![4.0, 3.0]);
        assert_eq!(r.center(0), 2.0);
        assert_eq!(r.center(1), 2.5);
    }

    #[test]
    fn finiteness_check() {
        let r = Rect::new(vec![0.0], vec![1.0]);
        assert!(r.is_finite());
        let bad = Rect {
            min: vec![f64::NAN],
            max: vec![1.0],
        };
        assert!(!bad.is_finite());
    }

    #[test]
    fn margin_sums_side_lengths() {
        let r = Rect::new(vec![0.0, 0.0, 0.0], vec![1.0, 2.0, 3.0]);
        assert_eq!(r.margin(), 6.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_rejected() {
        let _ = Rect::new(vec![1.0], vec![0.0]);
    }
}
