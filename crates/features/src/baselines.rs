//! Baseline shape descriptors from the paper's related work (§1).
//!
//! The paper positions its feature vectors against two families of
//! competing descriptors:
//!
//! * **shape distributions** (Osada et al., the paper's reference 15) — the D2
//!   histogram of distances between random surface point pairs;
//! * **shape histograms** (Ankerst et al., the paper's reference 14) — a
//!   complete, disjoint partitioning of space into cells; we implement
//!   the *shell* model: a histogram over concentric spherical shells
//!   around the centroid.
//!
//! Both are implemented here so the effectiveness comparison can
//! include the baselines (`tab_baselines`). Each descriptor is
//! translation- and rotation-invariant by construction and is
//! scale-normalized internally, matching the invariances of the
//! paper's own features.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdess_geom::{mesh_moments, sample_surface, TriMesh};

/// Fixed RNG seed for descriptor sampling: descriptors must be a
/// deterministic function of the mesh.
const SAMPLE_SEED: u64 = 0x3D_E55;

/// Parameters for the D2 shape distribution.
#[derive(Debug, Clone, Copy)]
pub struct D2Params {
    /// Number of random surface points.
    pub samples: usize,
    /// Number of random point pairs measured.
    pub pairs: usize,
    /// Histogram bins.
    pub bins: usize,
}

impl Default for D2Params {
    fn default() -> Self {
        D2Params {
            samples: 512,
            pairs: 4096,
            bins: 64,
        }
    }
}

/// Computes the D2 shape distribution: a normalized histogram of
/// pairwise distances between random surface points, with the distance
/// axis scaled by the mean pair distance (Osada's normalization, which
/// grants scale invariance). Histogram mass sums to 1; the axis spans
/// [0, 3·mean]. A mesh with no surface area to sample has no
/// distribution: every bin is NaN, which extraction rejects.
pub fn shape_distribution_d2(mesh: &TriMesh, params: &D2Params) -> Vec<f64> {
    assert!(params.samples >= 2 && params.pairs >= 1 && params.bins >= 1);
    let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
    let Some(pts) = sample_surface(mesh, params.samples, &mut rng) else {
        // hotpath: allow(hot-alloc) — sample pairs and histogram are the computed artifact
        return vec![f64::NAN; params.bins];
    };

    use rand::Rng;
    let mut dists = Vec::with_capacity(params.pairs);
    for _ in 0..params.pairs {
        let a = rng.gen_range(0..pts.len());
        let mut b = rng.gen_range(0..pts.len());
        if a == b {
            b = (b + 1) % pts.len();
        }
        dists.push(pts[a].distance(pts[b]));
    }
    let mean = dists.iter().sum::<f64>() / dists.len() as f64;
    let scale = 3.0 * mean.max(1e-12);

    let mut hist = vec![0.0; params.bins];
    for d in dists {
        let bin = ((d / scale) * params.bins as f64) as usize;
        hist[bin.min(params.bins - 1)] += 1.0;
    }
    let total: f64 = hist.iter().sum();
    for h in hist.iter_mut() {
        *h /= total;
    }
    hist
}

/// Parameters for the shell-model shape histogram.
#[derive(Debug, Clone, Copy)]
pub struct ShellParams {
    /// Number of random surface points.
    pub samples: usize,
    /// Number of concentric shells.
    pub shells: usize,
}

impl Default for ShellParams {
    fn default() -> Self {
        ShellParams {
            samples: 2048,
            shells: 32,
        }
    }
}

/// Computes the shell-model shape histogram: surface samples are
/// binned by their distance from the solid's centroid, with the radial
/// axis scaled by the maximum sample radius (scale invariance). Mass
/// sums to 1. A mesh with no surface area to sample gets NaN in every
/// shell, which extraction rejects.
pub fn shell_histogram(mesh: &TriMesh, params: &ShellParams) -> Vec<f64> {
    assert!(params.samples >= 1 && params.shells >= 1);
    let mut rng = StdRng::seed_from_u64(SAMPLE_SEED ^ 0xA5A5);
    let Some(pts) = sample_surface(mesh, params.samples, &mut rng) else {
        // hotpath: allow(hot-alloc) — shell counts are the computed artifact
        return vec![f64::NAN; params.shells];
    };
    let centroid = mesh_moments(mesh).centroid();

    let radii: Vec<f64> = pts.iter().map(|p| p.distance(centroid)).collect();
    let rmax = radii.iter().cloned().fold(0.0f64, f64::max).max(1e-12);

    let mut hist = vec![0.0; params.shells];
    for r in radii {
        let bin = ((r / rmax) * params.shells as f64) as usize;
        hist[bin.min(params.shells - 1)] += 1.0;
    }
    let total: f64 = hist.iter().sum();
    for h in hist.iter_mut() {
        *h /= total;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_geom::{primitives, Mat3, Vec3};

    fn l2(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn d2_is_a_distribution() {
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let h = shape_distribution_d2(&mesh, &D2Params::default());
        assert_eq!(h.len(), 64);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(h.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn d2_invariant_under_similarity_transform() {
        let mesh = primitives::cylinder(0.7, 2.0, 32);
        let h0 = shape_distribution_d2(&mesh, &D2Params::default());
        let mut moved = mesh.clone();
        moved.scale_uniform(2.4);
        moved.rotate(&Mat3::rotation_axis_angle(Vec3::new(1.0, 0.2, -0.4), 1.3));
        moved.translate(Vec3::new(10.0, -5.0, 3.0));
        let h1 = shape_distribution_d2(&moved, &D2Params::default());
        // Sampling is deterministic on the *mesh data*, which changed
        // coordinates — so histograms agree statistically, not exactly.
        assert!(l2(&h0, &h1) < 0.05, "distance {}", l2(&h0, &h1));
    }

    #[test]
    fn d2_distinguishes_sphere_from_rod() {
        let sphere =
            shape_distribution_d2(&primitives::uv_sphere(1.0, 24, 12), &D2Params::default());
        let rod = shape_distribution_d2(&primitives::cylinder(0.2, 6.0, 24), &D2Params::default());
        assert!(l2(&sphere, &rod) > 0.1, "distance {}", l2(&sphere, &rod));
    }

    #[test]
    fn shell_histogram_concentrates_for_sphere() {
        // All sphere surface points sit at the same radius: the mass
        // must concentrate in the outer shells.
        let h = shell_histogram(&primitives::uv_sphere(1.0, 32, 16), &ShellParams::default());
        assert_eq!(h.len(), 32);
        let outer: f64 = h[28..].iter().sum();
        assert!(outer > 0.95, "outer mass {outer}");
    }

    #[test]
    fn shell_histogram_spreads_for_rod() {
        let h = shell_histogram(&primitives::cylinder(0.2, 6.0, 24), &ShellParams::default());
        let occupied = h.iter().filter(|&&v| v > 0.0).count();
        assert!(occupied > 16, "only {occupied} shells occupied");
    }

    #[test]
    fn descriptors_are_deterministic() {
        let mesh = primitives::torus(1.5, 0.4, 24, 12);
        let a = shape_distribution_d2(&mesh, &D2Params::default());
        let b = shape_distribution_d2(&mesh, &D2Params::default());
        assert_eq!(a, b);
        let a = shell_histogram(&mesh, &ShellParams::default());
        let b = shell_histogram(&mesh, &ShellParams::default());
        assert_eq!(a, b);
    }
}
