//! Pose normalization (§3.1 of the paper).
//!
//! A model is brought to canonical form by imposing the paper's
//! normalization criteria on its moments (Eq. 3.2–3.4):
//!
//! 1. **translation** — the centroid moves to the origin
//!    (`m100 = m010 = m001 = 0`);
//! 2. **scale** — the volume is fixed to a constant (`m000 = 1`);
//! 3. **orientation** — the principal axes align with the coordinate
//!    axes (`m110 = m101 = m011 = 0`) with `µxx ≥ µyy ≥ µzz`, and the
//!    reflection ambiguity is resolved by requiring the model's extent
//!    in each positive half-space to dominate.

use serde::{Deserialize, Serialize};
use tdess_geom::{mesh_moments, sym3_eigen, Mat3, Moments, TriMesh, Vec3};

/// Result of normalizing a model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NormalizedModel {
    /// The canonical-form mesh (unit volume, centroid at origin,
    /// principal axes on X ≥ Y ≥ Z).
    pub mesh: TriMesh,
    /// Translation applied *before* scaling and rotation
    /// (the negated original centroid).
    pub translation: Vec3,
    /// Uniform scale factor applied to reach unit volume.
    pub scale: f64,
    /// Rotation applied after translation and scaling (rows are the
    /// original principal axes).
    pub rotation: Mat3,
    /// Axis sign flips applied to resolve the reflection ambiguity
    /// (+1 or -1 per axis).
    pub flips: Vec3,
}

/// Errors from normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalizeError {
    /// The mesh has (numerically) zero volume, so scale normalization
    /// is impossible.
    ZeroVolume,
    /// A volume moment of the mesh is NaN or infinite: a non-finite
    /// coordinate, or one so large its moments overflow.
    NonFiniteMoments,
    /// The mesh normalized, but an extracted feature vector holds a NaN,
    /// an infinity, or a value beyond
    /// [`MAX_FEATURE_MAGNITUDE`](crate::MAX_FEATURE_MAGNITUDE): a
    /// descriptor overflowed on the mesh, or would overflow a distance.
    NonFiniteFeatures,
}

impl std::fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NormalizeError::ZeroVolume => write!(f, "mesh volume is zero; cannot normalize scale"),
            NormalizeError::NonFiniteMoments => {
                write!(f, "mesh moments are not finite; cannot normalize")
            }
            NormalizeError::NonFiniteFeatures => write!(
                f,
                "extracted feature vectors are not finite or exceed ±{:e}",
                crate::MAX_FEATURE_MAGNITUDE
            ),
        }
    }
}

impl std::error::Error for NormalizeError {}

/// Every moment finite, or [`NormalizeError::NonFiniteMoments`].
fn finite(m: Moments) -> Result<Moments, NormalizeError> {
    let all = [
        m.m000, m.m100, m.m010, m.m001, m.m200, m.m020, m.m002, m.m110, m.m101, m.m011,
    ];
    if all.iter().all(|v| v.is_finite()) {
        Ok(m)
    } else {
        Err(NormalizeError::NonFiniteMoments)
    }
}

/// Normalizes a mesh to canonical pose per §3.1.
///
/// Fails unless the volume exceeds 1e-12 of the bounding box's largest
/// extent cubed, and every moment computed on the way is finite, so no
/// caller (the moment invariants read the same raw moments) meets a
/// NaN or an overflow. The floor scales with the mesh because rounding
/// noise in the volume does: a flat mesh far from the origin can read
/// a volume well above any absolute floor.
///
/// ```
/// use tdess_features::normalize;
/// use tdess_geom::{primitives, Vec3};
///
/// let mut mesh = primitives::box_mesh(Vec3::new(1.0, 4.0, 2.0));
/// mesh.translate(Vec3::new(7.0, -3.0, 2.0));
/// let nm = normalize(&mesh).unwrap();
/// // Unit volume, centroid at origin, longest axis on X.
/// assert!((nm.mesh.signed_volume() - 1.0).abs() < 1e-9);
/// let e = nm.mesh.bounding_box().extent();
/// assert!(e.x >= e.y && e.y >= e.z);
/// ```
pub fn normalize(mesh: &TriMesh) -> Result<NormalizedModel, NormalizeError> {
    let _stage = tdess_obs::StageTimer::start(tdess_obs::Stage::Normalize);
    let m = finite(mesh_moments(mesh))?;
    if m.m000 <= 1e-12 * mesh.bounding_box().extent().max_element().powi(3) {
        return Err(NormalizeError::ZeroVolume);
    }

    // 1. Translate the centroid to the origin (Eq. 3.2).
    let centroid = m.centroid();
    // hotpath: allow(hot-alloc) — the normalized mesh is the returned artifact
    let mut out = mesh.clone();
    out.translate(-centroid);

    // 2. Scale to unit volume (Eq. 3.3 with C = 1).
    let scale = m.m000.powf(-1.0 / 3.0);
    out.scale_uniform(scale);

    // 3. Rotate so the second-moment matrix is diagonal with
    //    µxx ≥ µyy ≥ µzz (Eq. 3.4 plus the ordering constraint).
    let mu = finite(mesh_moments(&out))?; // central by construction
    let eig = sym3_eigen(&mu.second_moment_matrix());
    // Columns of eig.vectors are the principal axes (descending
    // eigenvalue); mapping x' = Vᵀ x sends axis i to coordinate i.
    let rotation = eig.vectors.transpose();
    out.rotate(&rotation);

    // 4. Resolve the reflection ambiguity: require the maximum extent
    //    on each axis to lie in the positive half-space.
    let bb = out.bounding_box();
    let mut flips = Vec3::ONE;
    for axis in 0..3 {
        if -bb.min[axis] > bb.max[axis] + 1e-12 {
            flips[axis] = -1.0;
        }
    }
    if flips != Vec3::ONE {
        let f = flips;
        out.map_vertices(|v| Vec3::new(v.x * f.x, v.y * f.y, v.z * f.z));
        // An odd number of flips mirrors the solid; restore outward
        // orientation.
        if f.x * f.y * f.z < 0.0 {
            out.flip_orientation();
        }
    }

    Ok(NormalizedModel {
        mesh: out,
        translation: -centroid,
        scale,
        rotation,
        flips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_geom::primitives;

    fn canonical_checks(nm: &NormalizedModel) {
        let m = mesh_moments(&nm.mesh);
        // Unit volume.
        assert!((m.m000 - 1.0).abs() < 1e-9, "volume {}", m.m000);
        // Centroid at origin.
        assert!(
            m.centroid().approx_eq(Vec3::ZERO, 1e-9),
            "{:?}",
            m.centroid()
        );
        // Off-diagonal second moments vanish.
        assert!(m.m110.abs() < 1e-8, "m110 {}", m.m110);
        assert!(m.m101.abs() < 1e-8, "m101 {}", m.m101);
        assert!(m.m011.abs() < 1e-8, "m011 {}", m.m011);
        // Ordered principal moments.
        assert!(m.m200 >= m.m020 - 1e-9);
        assert!(m.m020 >= m.m002 - 1e-9);
    }

    #[test]
    fn box_normalizes_to_canonical_form() {
        let mesh = primitives::box_mesh(Vec3::new(3.0, 1.0, 2.0));
        let nm = normalize(&mesh).unwrap();
        canonical_checks(&nm);
        // The longest box axis (x = 3) must land on X; extents sorted.
        let e = nm.mesh.bounding_box().extent();
        assert!(e.x >= e.y && e.y >= e.z, "extents {e:?}");
        assert!(nm.mesh.is_watertight());
    }

    #[test]
    fn normalization_is_invariant_to_rigid_motion_and_scale() {
        let base = primitives::box_mesh(Vec3::new(3.0, 1.0, 2.0));
        let nm0 = normalize(&base).unwrap();
        let mu0 = mesh_moments(&nm0.mesh);

        let mut moved = base.clone();
        moved.scale_uniform(2.7);
        moved.rotate(&Mat3::rotation_axis_angle(Vec3::new(0.3, 1.0, -0.5), 1.2));
        moved.translate(Vec3::new(10.0, -4.0, 6.0));
        let nm1 = normalize(&moved).unwrap();
        canonical_checks(&nm1);
        let mu1 = mesh_moments(&nm1.mesh);
        assert!((mu0.m200 - mu1.m200).abs() < 1e-8);
        assert!((mu0.m020 - mu1.m020).abs() < 1e-8);
        assert!((mu0.m002 - mu1.m002).abs() < 1e-8);
    }

    #[test]
    fn normalization_is_idempotent() {
        let mesh = primitives::cylinder(0.8, 3.0, 32);
        let nm1 = normalize(&mesh).unwrap();
        let nm2 = normalize(&nm1.mesh).unwrap();
        canonical_checks(&nm2);
        // Second normalization should be nearly the identity.
        assert!((nm2.scale - 1.0).abs() < 1e-9, "scale {}", nm2.scale);
        let mu1 = mesh_moments(&nm1.mesh);
        let mu2 = mesh_moments(&nm2.mesh);
        assert!((mu1.m200 - mu2.m200).abs() < 1e-9);
    }

    #[test]
    fn scale_factor_recorded_correctly() {
        let mut mesh = primitives::box_mesh(Vec3::ONE);
        mesh.scale_uniform(2.0); // volume 8
        let nm = normalize(&mesh).unwrap();
        assert!((nm.scale - 0.5).abs() < 1e-12, "scale {}", nm.scale);
    }

    #[test]
    fn asymmetric_shape_flips_to_positive_half_space() {
        // A cone pointing down -z has more extent below the centroid.
        let mesh = primitives::cone(1.0, 2.0, 32);
        let nm = normalize(&mesh).unwrap();
        let bb = nm.mesh.bounding_box();
        for axis in 0..3 {
            assert!(
                bb.max[axis] >= -bb.min[axis] - 1e-9,
                "axis {axis}: max {} < |min| {}",
                bb.max[axis],
                -bb.min[axis]
            );
        }
        // Orientation must remain outward after any mirror fix.
        assert!(nm.mesh.signed_volume() > 0.0);
        assert!(nm.mesh.is_watertight());
    }

    #[test]
    fn degenerate_mesh_rejected() {
        // A single triangle has no volume.
        let mesh = TriMesh::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        assert!(matches!(normalize(&mesh), Err(NormalizeError::ZeroVolume)));
        // Nor does one that repeats a vertex, though far from the
        // origin rounding makes its volume moment read far above 1e-12.
        let v = Vec3::new(1e7, 1e7, 1e7);
        let far = TriMesh::new(
            vec![v, v + Vec3::X, Vec3::new(1e7, 1e7 + 1.0, 1e8)],
            vec![[1, 1, 2]],
        );
        assert!(mesh_moments(&far).m000.abs() > 1e-12);
        assert!(matches!(normalize(&far), Err(NormalizeError::ZeroVolume)));
    }
}
