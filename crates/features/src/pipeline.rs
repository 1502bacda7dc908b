//! The feature-extraction pipeline (Fig. 2 of the paper).
//!
//! A query or database shape flows through normalization →
//! voxelization → skeletonization → skeletal-graph construction, and
//! the four feature vectors are read off along the way. This module
//! packages that flow behind [`FeatureExtractor`].

use serde::{Deserialize, Serialize};
use tdess_geom::{mesh_moments, TriMesh, Vec3};
use tdess_skeleton::{
    build_graph, prune_spurs, skeletonize_into, spectral_signature, SkeletalGraph, ThinScratch,
    ThinningParams,
};
use tdess_voxel::{voxelize_into, FloodScratch, VoxelGrid, VoxelizeParams};

use crate::baselines::{shape_distribution_d2, shell_histogram, D2Params, ShellParams};
use crate::normalize::{normalize, NormalizeError, NormalizedModel};
use crate::vectors::{
    geometric_params, higher_order_moments, moment_invariants, principal_moments, FeatureKind,
};

/// Default dimension of the eigenvalue feature vector.
pub const DEFAULT_SPECTRUM_DIM: usize = 8;

/// The largest magnitude a feature value may have, extracted, loaded
/// or submitted. Within it the squared distance of any two vectors is
/// finite: each term is at most (2·10¹⁵⁰)² = 4·10³⁰⁰, and `f64::MAX` is
/// about 1.8·10³⁰⁸, so a sum over fewer than 4·10⁷ axes cannot
/// overflow, and neither can a database's diameter.
pub const MAX_FEATURE_MAGNITUDE: f64 = 1e150;

/// Whether every value of `v` lies within ±[`MAX_FEATURE_MAGNITUDE`]:
/// false for NaN and the infinities too. The one feature-value check
/// of extraction, snapshot loading and submitted queries.
pub fn features_in_range(v: &[f64]) -> bool {
    v.iter().all(|x| x.abs() <= MAX_FEATURE_MAGNITUDE)
}

/// The complete set of feature vectors for one shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureSet {
    /// Moment invariants F1–F3.
    pub moment_invariants: Vec<f64>,
    /// Geometric parameters.
    pub geometric: Vec<f64>,
    /// Principal moments of the normalized model.
    pub principal_moments: Vec<f64>,
    /// Skeletal-graph eigenvalue signature.
    pub eigenvalues: Vec<f64>,
    /// Higher-order (third) central moments of the normalized model.
    #[serde(default)]
    pub higher_order: Vec<f64>,
    /// D2 shape-distribution histogram (related-work baseline).
    #[serde(default)]
    pub shape_distribution: Vec<f64>,
    /// Shell-model shape histogram (related-work baseline).
    #[serde(default)]
    pub shell_histogram: Vec<f64>,
}

impl FeatureSet {
    /// The vector for a given feature kind.
    pub fn get(&self, kind: FeatureKind) -> &[f64] {
        match kind {
            FeatureKind::MomentInvariants => &self.moment_invariants,
            FeatureKind::GeometricParams => &self.geometric,
            FeatureKind::PrincipalMoments => &self.principal_moments,
            FeatureKind::Eigenvalues => &self.eigenvalues,
            FeatureKind::HigherOrder => &self.higher_order,
            FeatureKind::ShapeDistribution => &self.shape_distribution,
            FeatureKind::ShellHistogram => &self.shell_histogram,
        }
    }
}

/// Intermediate artifacts of the pipeline, useful for inspection,
/// debugging, and the browsing interface.
#[derive(Debug, Clone)]
pub struct PipelineArtifacts {
    /// The normalized model.
    pub normalized: NormalizedModel,
    /// Voxelization of the normalized model.
    pub voxels: VoxelGrid,
    /// The thinned skeleton.
    pub skeleton: VoxelGrid,
    /// The skeletal graph.
    pub graph: SkeletalGraph,
    /// The extracted feature vectors.
    pub features: FeatureSet,
}

/// Configuration of the feature-extraction pipeline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Voxel resolution along the longest axis (the paper's `N`).
    pub voxel_resolution: usize,
    /// Dimension of the eigenvalue signature.
    pub spectrum_dim: usize,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            voxel_resolution: 48,
            spectrum_dim: DEFAULT_SPECTRUM_DIM,
        }
    }
}

/// Reusable buffers for [`FeatureExtractor::extract_with_scratch`]:
/// the voxel grid, the skeleton grid, and the per-stage scratch of the
/// voxelizer and thinner. One `ExtractScratch` held across queries
/// eliminates the per-query dense-grid allocations of the pipeline.
#[derive(Debug)]
pub struct ExtractScratch {
    voxels: VoxelGrid,
    skeleton: VoxelGrid,
    flood: FloodScratch,
    thin: ThinScratch,
}

impl Default for ExtractScratch {
    fn default() -> Self {
        ExtractScratch {
            voxels: VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0),
            skeleton: VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0),
            flood: FloodScratch::default(),
            thin: ThinScratch::default(),
        }
    }
}

std::thread_local! {
    /// Per-thread scratch behind [`FeatureExtractor::extract`], so the
    /// zero-argument API reuses buffers without any caller changes.
    static EXTRACT_SCRATCH: std::cell::RefCell<ExtractScratch> =
        std::cell::RefCell::new(ExtractScratch::default());
}

impl FeatureExtractor {
    /// Extracts all four feature vectors from a mesh.
    ///
    /// Reuses a per-thread [`ExtractScratch`], so repeated calls on one
    /// thread avoid re-allocating the dense grids. Results are
    /// bit-identical to [`FeatureExtractor::extract_detailed`].
    pub fn extract(&self, mesh: &TriMesh) -> Result<FeatureSet, NormalizeError> {
        EXTRACT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.extract_with_scratch(mesh, &mut scratch),
            // Reentrant call (extractor invoked from inside another
            // extraction on this thread): fall back to fresh buffers.
            Err(_) => self.extract_with_scratch(mesh, &mut ExtractScratch::default()),
        })
    }

    /// [`FeatureExtractor::extract`] with caller-owned scratch buffers.
    pub fn extract_with_scratch(
        &self,
        mesh: &TriMesh,
        scratch: &mut ExtractScratch,
    ) -> Result<FeatureSet, NormalizeError> {
        let normalized = normalize(mesh)?;
        let ExtractScratch {
            voxels,
            skeleton,
            flood,
            thin,
        } = scratch;
        let (_graph, features) =
            self.run_pipeline(mesh, &normalized, voxels, skeleton, flood, thin)?;
        Ok(features)
    }

    /// Runs the pipeline on a model the caller already normalized —
    /// the extraction cache normalizes once to derive the content key
    /// and hands the result here, skipping a second normalization.
    ///
    /// `normalized` must be [`normalize`]\(`mesh`\)'s output for this
    /// same `mesh`; results are then bit-identical to
    /// [`FeatureExtractor::extract`], errors included. Reuses the
    /// per-thread scratch like `extract`.
    pub fn extract_from_normalized(
        &self,
        mesh: &TriMesh,
        normalized: &NormalizedModel,
    ) -> Result<FeatureSet, NormalizeError> {
        EXTRACT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => {
                let ExtractScratch {
                    voxels,
                    skeleton,
                    flood,
                    thin,
                } = &mut *scratch;
                self.run_pipeline(mesh, normalized, voxels, skeleton, flood, thin)
                    .map(|(_, f)| f)
            }
            // Reentrant call: fresh buffers, same output.
            Err(_) => {
                let mut scratch = ExtractScratch::default();
                let ExtractScratch {
                    voxels,
                    skeleton,
                    flood,
                    thin,
                } = &mut scratch;
                self.run_pipeline(mesh, normalized, voxels, skeleton, flood, thin)
                    .map(|(_, f)| f)
            }
        })
    }

    /// Extracts features and returns every intermediate artifact.
    pub fn extract_detailed(&self, mesh: &TriMesh) -> Result<PipelineArtifacts, NormalizeError> {
        let normalized = normalize(mesh)?;
        // Artifacts are returned to the caller, so they get fresh
        // buffers instead of the per-thread scratch.
        let mut voxels = VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0);
        let mut skeleton = VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0);
        let (graph, features) = self.run_pipeline(
            mesh,
            &normalized,
            &mut voxels,
            &mut skeleton,
            &mut FloodScratch::default(),
            &mut ThinScratch::default(),
        )?;
        Ok(PipelineArtifacts {
            normalized,
            voxels,
            skeleton,
            graph,
            features,
        })
    }

    /// The shared stage sequence: voxelize → thin → prune → graph →
    /// spectrum, plus the mesh-side vectors. Grids and stage scratch
    /// come from the caller; output does not depend on their prior
    /// contents. A mesh can pass normalization yet overflow a
    /// descriptor, so every vector is checked finite at the end.
    fn run_pipeline(
        &self,
        mesh: &TriMesh,
        normalized: &NormalizedModel,
        voxels: &mut VoxelGrid,
        skeleton: &mut VoxelGrid,
        flood: &mut FloodScratch,
        thin: &mut ThinScratch,
    ) -> Result<(SkeletalGraph, FeatureSet), NormalizeError> {
        let mi = moment_invariants(&mesh_moments(mesh));
        let gp = geometric_params(mesh, normalized);
        let pm = principal_moments(normalized);
        let ho = higher_order_moments(normalized);
        let d2 = shape_distribution_d2(mesh, &D2Params::default());
        let sh = shell_histogram(mesh, &ShellParams::default());

        voxelize_into(
            &normalized.mesh,
            &VoxelizeParams {
                resolution: self.voxel_resolution,
                ..Default::default()
            },
            voxels,
            flood,
        );
        skeletonize_into(voxels, &ThinningParams::default(), skeleton, thin);
        // Remove thinning whiskers shorter than ~1/6 of the model's
        // voxel extent; they create fake junctions that fragment the
        // skeletal graph.
        prune_spurs(skeleton, (self.voxel_resolution / 8).max(3));
        let graph = build_graph(skeleton);
        let ev = spectral_signature(&graph, self.spectrum_dim);

        let features = FeatureSet {
            // hotpath: allow(hot-alloc) — the feature vectors are the returned artifact
            moment_invariants: mi.to_vec(),
            geometric: gp.to_vec(),
            principal_moments: pm.to_vec(),
            eigenvalues: ev,
            higher_order: ho.to_vec(),
            shape_distribution: d2,
            shell_histogram: sh,
        };
        if FeatureKind::ALL
            .iter()
            .all(|&k| features_in_range(features.get(k)))
        {
            Ok((graph, features))
        } else {
            Err(NormalizeError::NonFiniteFeatures)
        }
    }

    /// Dimension of the vector produced for `kind` by this extractor.
    pub fn dim(&self, kind: FeatureKind) -> usize {
        match kind {
            FeatureKind::MomentInvariants => 3,
            FeatureKind::GeometricParams => 5,
            FeatureKind::PrincipalMoments => 3,
            FeatureKind::Eigenvalues => self.spectrum_dim,
            FeatureKind::HigherOrder => 10,
            FeatureKind::ShapeDistribution => D2Params::default().bins,
            FeatureKind::ShellHistogram => ShellParams::default().shells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_geom::{primitives, Mat3, Vec3};

    /// Boxes too large for finite moments, and a NaN vertex, are
    /// typed errors: none panics, none yields non-finite features.
    #[test]
    fn extreme_meshes_are_typed_errors() {
        let ex = FeatureExtractor {
            voxel_resolution: 8,
            ..Default::default()
        };
        for scale in [1e70, 1e80, 1e300] {
            let mut mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
            mesh.scale_uniform(scale);
            assert!(ex.extract(&mesh).is_err(), "box scaled by {scale:e}");
        }
        let mut nan = primitives::box_mesh(Vec3::ONE);
        nan.vertices[3].y = f64::NAN;
        assert_eq!(
            ex.extract(&nan).err(),
            Some(NormalizeError::NonFiniteMoments)
        );
    }

    /// A box with one vertex pulled out to 10⁷⁸ has finite moments, but
    /// its moment invariants overflow to NaN. Its volume is far below
    /// the scale-relative floor, so `extract` stops at normalization;
    /// handed a normalized model anyway, the pipeline's own finiteness
    /// check makes it a typed error in every build, not a NaN feature.
    #[test]
    fn overflowing_features_are_typed_errors() {
        let ex = FeatureExtractor {
            voxel_resolution: 8,
            ..Default::default()
        };
        let mut far = primitives::box_mesh(Vec3::ONE);
        far.vertices[1] = Vec3::new(1e78, -1e78, 5e77);
        assert_eq!(ex.extract(&far).err(), Some(NormalizeError::ZeroVolume));
        let unit = normalize(&primitives::box_mesh(Vec3::ONE)).unwrap();
        assert_eq!(
            ex.extract_from_normalized(&far, &unit).err(),
            Some(NormalizeError::NonFiniteFeatures)
        );
    }

    /// A 1e56 × 1e56 × 1e48 box passes normalization, but its
    /// geometric parameters carry its original volume, 1e160, whose
    /// square overflows any distance to it: a typed error, not a
    /// vector that turns distances and the diameter infinite.
    #[test]
    fn features_beyond_the_magnitude_bound_are_typed_errors() {
        let ex = FeatureExtractor {
            voxel_resolution: 8,
            ..Default::default()
        };
        let huge = primitives::box_mesh(Vec3::new(1e56, 1e56, 1e48));
        let nm = normalize(&huge).unwrap();
        let gp = geometric_params(&huge, &nm);
        assert!(gp.iter().all(|v| v.is_finite()));
        assert!(gp[4] > MAX_FEATURE_MAGNITUDE, "{gp:?}");
        assert_eq!(
            ex.extract(&huge).err(),
            Some(NormalizeError::NonFiniteFeatures)
        );
        assert!(features_in_range(&[1.0, -1e150, 1e150]));
        assert!(!features_in_range(&[1e151]));
        assert!(!features_in_range(&[f64::NAN]));
        assert!(!features_in_range(&[f64::NEG_INFINITY]));
    }

    #[test]
    fn extractor_produces_all_vectors_with_correct_dims() {
        let ex = FeatureExtractor::default();
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let fs = ex.extract(&mesh).unwrap();
        assert_eq!(
            fs.moment_invariants.len(),
            ex.dim(FeatureKind::MomentInvariants)
        );
        assert_eq!(fs.geometric.len(), ex.dim(FeatureKind::GeometricParams));
        assert_eq!(
            fs.principal_moments.len(),
            ex.dim(FeatureKind::PrincipalMoments)
        );
        assert_eq!(fs.eigenvalues.len(), ex.dim(FeatureKind::Eigenvalues));
        for kind in FeatureKind::ALL {
            assert!(!fs.get(kind).is_empty());
            assert!(fs.get(kind).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn features_stable_under_rigid_motion() {
        let ex = FeatureExtractor {
            voxel_resolution: 32,
            ..Default::default()
        };
        let mesh = primitives::box_mesh(Vec3::new(3.0, 1.5, 0.8));
        let f0 = ex.extract(&mesh).unwrap();

        let mut moved = mesh.clone();
        moved.rotate(&Mat3::rotation_axis_angle(Vec3::new(0.2, 1.0, 0.7), 0.9));
        moved.translate(Vec3::new(4.0, -2.0, 1.0));
        let f1 = ex.extract(&moved).unwrap();

        // Moment invariants and principal moments are exactly
        // pose-invariant (up to numerics).
        for (a, b) in f0.moment_invariants.iter().zip(&f1.moment_invariants) {
            assert!((a - b).abs() < 1e-9, "MI {a} vs {b}");
        }
        for (a, b) in f0.principal_moments.iter().zip(&f1.principal_moments) {
            assert!((a - b).abs() < 1e-8, "PM {a} vs {b}");
        }
        // Aspect ratios (normalized-bbox based) are pose-invariant too.
        for i in 0..2 {
            assert!(
                (f0.geometric[i] - f1.geometric[i]).abs() < 1e-6,
                "aspect {i}: {} vs {}",
                f0.geometric[i],
                f1.geometric[i]
            );
        }
    }

    #[test]
    fn eigenvalue_signature_reflects_topology() {
        let ex = FeatureExtractor {
            voxel_resolution: 40,
            ..Default::default()
        };
        let rod = ex
            .extract(&primitives::box_mesh(Vec3::new(4.0, 0.5, 0.5)))
            .unwrap();
        let ring = ex.extract(&primitives::torus(1.0, 0.28, 48, 20)).unwrap();
        let d: f64 = rod
            .eigenvalues
            .iter()
            .zip(&ring.eigenvalues)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(d > 0.5, "rod and ring signatures too close: {d}");
    }

    #[test]
    fn artifacts_are_consistent() {
        let ex = FeatureExtractor {
            voxel_resolution: 32,
            ..Default::default()
        };
        let mesh = primitives::cylinder(0.6, 2.5, 24);
        let art = ex.extract_detailed(&mesh).unwrap();
        // Skeleton is a subset of the voxel model.
        for (i, j, k) in art.skeleton.iter_filled() {
            assert!(art.voxels.get(i as isize, j as isize, k as isize));
        }
        // Graph signature matches the features.
        let sig = spectral_signature(&art.graph, ex.spectrum_dim);
        assert_eq!(sig, art.features.eigenvalues);
        // Normalized model has unit volume.
        assert!((art.normalized.mesh.signed_volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_scratch_matches_detailed_extraction_exactly() {
        // The per-thread scratch path must be bit-identical to the
        // fresh-buffer path, including when grid sizes shrink and grow
        // between consecutive shapes.
        let ex = FeatureExtractor {
            voxel_resolution: 32,
            ..Default::default()
        };
        let meshes = [
            primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)),
            primitives::torus(1.0, 0.28, 32, 12),
            primitives::cylinder(0.6, 2.5, 24),
        ];
        let mut scratch = ExtractScratch::default();
        for mesh in &meshes {
            let warm = ex.extract_with_scratch(mesh, &mut scratch).unwrap();
            let threaded = ex.extract(mesh).unwrap();
            let cold = ex.extract_detailed(mesh).unwrap().features;
            for kind in FeatureKind::ALL {
                assert_eq!(warm.get(kind), cold.get(kind), "{kind:?} diverged");
                assert_eq!(threaded.get(kind), cold.get(kind), "{kind:?} diverged");
            }
        }
    }

    #[test]
    fn zero_volume_input_errors() {
        let ex = FeatureExtractor::default();
        let mesh = TriMesh::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        assert!(ex.extract(&mesh).is_err());
    }
}
