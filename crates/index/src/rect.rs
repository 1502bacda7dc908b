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

    /// Whether every min coordinate is ≤ its max — false for
    /// inverted corners and for NaN holes. Used by debug assertions.
    pub fn is_ordered(&self) -> bool {
        self.min.len() == self.max.len() && self.min.iter().zip(&self.max).all(|(a, b)| a <= b)
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

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        // hotpath: allow(hot-alloc) — the merged rect owns its bounds
        let mut r = self.clone();
        r.union_in_place(other);
        r
    }

    /// Hyper-volume (product of side lengths).
    pub fn volume(&self) -> f64 {
        self.min.iter().zip(&self.max).map(|(a, b)| b - a).product()
    }

    /// Sum of side lengths (the "margin", used as a split tiebreak).
    pub fn margin(&self) -> f64 {
        self.min.iter().zip(&self.max).map(|(a, b)| b - a).sum()
    }

    /// Volume increase needed to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).volume() - self.volume()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_rect_is_degenerate() {
        let r = Rect::from_point(&[1.0, 2.0, 3.0]);
        assert_eq!(r.volume(), 0.0);
        assert!(r.contains_point(&[1.0, 2.0, 3.0]));
        assert!(!r.contains_point(&[1.0, 2.0, 3.1]));
    }

    #[test]
    fn union_and_enlargement() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Rect::new(vec![2.0, 0.5], vec![3.0, 2.0]);
        let u = a.union(&b);
        assert_eq!(u.min, vec![0.0, 0.0]);
        assert_eq!(u.max, vec![3.0, 2.0]);
        assert_eq!(u.volume(), 6.0);
        assert_eq!(a.enlargement(&b), 6.0 - 1.0);
        // Union with a contained rect costs nothing.
        let c = Rect::new(vec![0.2, 0.2], vec![0.8, 0.8]);
        assert_eq!(a.enlargement(&c), 0.0);
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
