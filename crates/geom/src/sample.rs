//! Random surface sampling of triangle meshes.
//!
//! Area-weighted uniform sampling is the substrate for the
//! shape-distribution baseline descriptor (Osada et al., cited as reference 15
//! in the paper's related work).

use rand::rngs::StdRng;
use rand::Rng;

use crate::mesh::TriMesh;
use crate::vec3::Vec3;

/// Draws `n` points uniformly from the surface of `mesh`
/// (area-weighted triangle selection + uniform barycentric sampling).
/// `None` when the total surface area is zero or not finite: there is
/// no surface to sample.
pub fn sample_surface(mesh: &TriMesh, n: usize, rng: &mut StdRng) -> Option<Vec<Vec3>> {
    // Cumulative area table for triangle selection by binary search.
    let mut cum = Vec::with_capacity(mesh.num_triangles());
    let mut total = 0.0;
    for [a, b, c] in mesh.triangle_iter() {
        total += 0.5 * (b - a).cross(c - a).norm();
        cum.push(total);
    }
    if !(total > 0.0 && total.is_finite()) {
        return None;
    }

    let points = (0..n)
        .map(|_| {
            let t = rng.gen_range(0.0..total);
            let idx = cum.partition_point(|&x| x < t).min(cum.len() - 1);
            let [a, b, c] = mesh.triangle(idx);
            // Uniform barycentric: reflect the unit square across the
            // diagonal (Osada's sqrt trick).
            let r1: f64 = rng.gen();
            let r2: f64 = rng.gen();
            let s = r1.sqrt();
            a * (1.0 - s) + b * (s * (1.0 - r2)) + c * (s * r2)
        })
        // hotpath: allow(hot-alloc) — the sampled point set is the returned artifact
        .collect();
    Some(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives;
    use rand::SeedableRng;

    #[test]
    fn samples_lie_on_the_surface() {
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let mut rng = StdRng::seed_from_u64(1);
        let pts = sample_surface(&mesh, 500, &mut rng).unwrap();
        assert_eq!(pts.len(), 500);
        // Every sample lies on one of the box faces: one coordinate at
        // the half-extent.
        for p in pts {
            let on_face = (p.x.abs() - 1.0).abs() < 1e-12
                || (p.y.abs() - 0.5).abs() < 1e-12
                || (p.z.abs() - 0.25).abs() < 1e-12;
            assert!(on_face, "{p:?} not on the box surface");
        }
    }

    #[test]
    fn sampling_is_area_weighted() {
        // A box much longer in x: the two small end faces should
        // receive far fewer samples than the four long faces.
        let mesh = primitives::box_mesh(Vec3::new(10.0, 1.0, 1.0));
        let mut rng = StdRng::seed_from_u64(2);
        let pts = sample_surface(&mesh, 4000, &mut rng).unwrap();
        let on_ends = pts
            .iter()
            .filter(|p| (p.x.abs() - 5.0).abs() < 1e-12)
            .count();
        // End faces are 2/42 of the area ≈ 4.8%.
        let frac = on_ends as f64 / 4000.0;
        assert!(frac < 0.10, "end-face fraction {frac}");
        assert!(frac > 0.01, "end-face fraction {frac}");
    }

    #[test]
    fn deterministic_for_seed() {
        let mesh = primitives::uv_sphere(1.0, 16, 8);
        let a = sample_surface(&mesh, 50, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = sample_surface(&mesh, 50, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn sphere_samples_at_radius() {
        let mesh = primitives::uv_sphere(1.0, 32, 16);
        let mut rng = StdRng::seed_from_u64(3);
        for p in sample_surface(&mesh, 200, &mut rng).unwrap() {
            // On a chord-approximated sphere the radius is slightly
            // below 1 but never above.
            assert!(p.norm() <= 1.0 + 1e-9 && p.norm() > 0.9, "{}", p.norm());
        }
    }

    /// Zero or overflowing area has no surface to sample: `None`, not
    /// a panic. The triangle repeats a vertex, so its area is zero.
    #[test]
    fn zero_area_is_none() {
        let v = Vec3::new(1e7, 1e7, 1e7);
        let mesh = TriMesh::new(
            vec![v, v + Vec3::X, Vec3::new(1e7, 1e7 + 1.0, 1e8)],
            vec![[1, 1, 2]],
        );
        assert!(sample_surface(&mesh, 10, &mut StdRng::seed_from_u64(1)).is_none());
        let mut huge = primitives::box_mesh(Vec3::ONE);
        huge.scale_uniform(1e300);
        assert!(sample_surface(&huge, 10, &mut StdRng::seed_from_u64(1)).is_none());
    }
}
