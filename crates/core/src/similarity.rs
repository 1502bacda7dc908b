//! Similarity measures (Eq. 4.3–4.4 of the paper).

/// Per-dimension weights for the weighted Euclidean distance. `None`
/// means unit weights (plain Euclidean).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Weights(pub Option<Vec<f64>>);

impl Weights {
    /// Unit weights.
    pub fn unit() -> Weights {
        Weights(None)
    }

    /// Explicit weights; must be non-negative.
    pub fn new(w: Vec<f64>) -> Weights {
        assert!(
            w.iter().all(|&v| v >= 0.0 && v.is_finite()),
            "weights must be finite and non-negative"
        );
        Weights(Some(w))
    }

    /// Whether these are (implicit) unit weights.
    pub fn is_unit(&self) -> bool {
        self.0.is_none()
    }
}

/// Weighted Euclidean distance (Eq. 4.3):
/// `d = sqrt(Σᵢ wᵢ (qᵢ − xᵢ)²)`.
pub fn weighted_distance(q: &[f64], x: &[f64], weights: &Weights) -> f64 {
    assert_eq!(q.len(), x.len(), "feature dimension mismatch");
    match &weights.0 {
        None => q
            .iter()
            .zip(x)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt(),
        Some(w) => {
            assert_eq!(w.len(), q.len(), "weight dimension mismatch");
            q.iter()
                .zip(x)
                .zip(w)
                .map(|((a, b), wi)| wi * (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        }
    }
}

/// Similarity from distance (Eq. 4.4): `s = 1 − d/dmax`, clamped to
/// [0, 1]. `dmax` is the diameter of the stored points in the feature
/// space; a non-positive `dmax` (empty or single-point database) maps
/// distance 0 to similarity 1 and anything else to 0.
pub fn similarity(distance: f64, dmax: f64) -> f64 {
    if dmax <= 0.0 {
        return if distance == 0.0 { 1.0 } else { 0.0 };
    }
    (1.0 - distance / dmax).clamp(0.0, 1.0)
}

/// Distance radius corresponding to a similarity threshold:
/// `d = (1 − s)·dmax`.
pub fn threshold_to_radius(threshold: f64, dmax: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&threshold),
        "threshold must be in [0, 1]"
    );
    (1.0 - threshold) * dmax.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_distance_is_euclidean() {
        let d = weighted_distance(&[0.0, 0.0], &[3.0, 4.0], &Weights::unit());
        assert_eq!(d, 5.0);
    }

    #[test]
    fn weights_scale_dimensions() {
        let w = Weights::new(vec![4.0, 0.0]);
        let d = weighted_distance(&[0.0, 0.0], &[3.0, 100.0], &w);
        assert_eq!(d, 6.0); // sqrt(4·9 + 0)
    }

    #[test]
    fn similarity_maps_linearly() {
        assert_eq!(similarity(0.0, 10.0), 1.0);
        assert_eq!(similarity(5.0, 10.0), 0.5);
        assert_eq!(similarity(10.0, 10.0), 0.0);
        // Distances beyond dmax clamp at 0.
        assert_eq!(similarity(15.0, 10.0), 0.0);
    }

    #[test]
    fn degenerate_dmax() {
        assert_eq!(similarity(0.0, 0.0), 1.0);
        assert_eq!(similarity(0.1, 0.0), 0.0);
    }

    #[test]
    fn threshold_radius_roundtrip() {
        let dmax = 8.0;
        for s in [0.0, 0.25, 0.85, 1.0] {
            let r = threshold_to_radius(s, dmax);
            assert!((similarity(r, dmax) - s).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = weighted_distance(&[1.0], &[1.0, 2.0], &Weights::unit());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = Weights::new(vec![-1.0]);
    }
}
