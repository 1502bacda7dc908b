//! Canonical content keys for extraction results.
//!
//! A cache key must satisfy two contracts at once:
//!
//! * **recall** — the same engineering part, re-exported by a
//!   different tool (reordered float noise, a rigid motion, a raw
//!   translation) should land on the same key, so near-duplicate
//!   queries skip the pipeline;
//! * **correctness** — two inputs whose extracted feature vectors
//!   differ beyond float noise must never share a key.
//!
//! The key is therefore derived from the *normalized* model (the
//! paper's §3.1 canonical pose: centroid at the origin, unit volume,
//! principal axes ordered and sign-fixed), with every coordinate
//! quantized to a fixed grid so last-bit float noise collides. Pose is
//! the only thing normalization may quotient out of the key: the
//! extracted geometric parameters include the surface-to-volume ratio,
//! the normalization scale, and the raw volume, none of which are
//! scale-invariant — so the normalization *scale* is folded back into
//! the key (quantized in log space, making relative float noise
//! collide). Two copies of one part at different absolute sizes get
//! different keys, exactly because their feature vectors differ.
//!
//! One caveat keeps the contract honest: canonicalization is only
//! unique when the model's principal axes and reflection signs are
//! well determined. Mirror- or rotation-symmetric parts (a plain box,
//! an unwarped torus) have zero odd moments or repeated eigenvalues,
//! so two rigid copies may legally canonicalize into different
//! symmetry-equivalent poses and land on different keys. That is a
//! *miss*, never a wrong hit — the dominant workload (bit-identical
//! re-queries, which always collide) is unaffected, and asymmetric
//! engineering parts get the full rigid-motion invariance.
//!
//! On top of the geometry the key folds in every extraction-config
//! parameter ([`FeatureExtractor`]'s voxel resolution and spectrum
//! dimension) and [`PIPELINE_VERSION`], so a config change or a
//! pipeline algorithm change can never serve stale vectors — it simply
//! misses.
//!
//! Hashing uses the same safe-Rust multiply–rotate lane construction
//! as `tdess-core`'s snapshot `checksum64`, run as two independently
//! keyed four-lane states to produce 128 bits; at 128 bits, accidental
//! collision over any realistic corpus is negligible (~2⁻¹²⁸ per
//! pair).

use tdess_features::{FeatureExtractor, NormalizedModel};
use tdess_geom::TriMesh;

/// Version of the extraction pipeline folded into every cache key.
///
/// **Bump this whenever any extraction stage changes its output** —
/// voxelization, thinning, graph construction, spectrum, any feature
/// vector, or the normalization itself. Old cached entries then miss
/// instead of serving vectors the current pipeline would not produce.
pub const PIPELINE_VERSION: u32 = 1;

/// Coordinate quantum: canonical-mesh coordinates (unit-volume models,
/// extents of order one) are rounded to steps of 2⁻¹² ≈ 2.4·10⁻⁴
/// before hashing. The width is chosen to sit between two scales:
/// exporter/normalization float noise reaches canonical coordinates at
/// ≲10⁻⁸, so the chance that any coordinate straddles a rounding
/// boundary is a few parts in 10⁵ per mesh — re-exports collide; while
/// the extracted features cannot resolve geometry differences anywhere
/// near the quantum (one voxel cell at the default resolution 48 is
/// ~2·10⁻² in canonical units, two orders coarser), so two meshes that
/// quantize identically also extract identically to within the
/// pipeline's own discretization.
const QUANT_STEPS: f64 = (1u64 << 12) as f64;

/// A 128-bit content key for one (canonical mesh, extraction config,
/// pipeline version) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Derives the key for a normalized model under `extractor`'s
    /// configuration and the current [`PIPELINE_VERSION`].
    pub fn derive(normalized: &NormalizedModel, extractor: &FeatureExtractor) -> CacheKey {
        Self::derive_versioned(normalized, extractor, PIPELINE_VERSION)
    }

    /// [`CacheKey::derive`] with an explicit pipeline version (exposed
    /// so tests can prove that a version bump changes the key).
    pub fn derive_versioned(
        normalized: &NormalizedModel,
        extractor: &FeatureExtractor,
        version: u32,
    ) -> CacheKey {
        let mut h = KeyHasher::new();
        h.word(u64::from(version));
        h.word(extractor.voxel_resolution as u64);
        h.word(extractor.spectrum_dim as u64);
        // The normalization scale in log space: relative noise in the
        // original model's absolute size collides, a 2x-scaled copy
        // (whose S/V, scale, and volume features differ) does not.
        h.word(quantize(normalized.scale.ln()) as u64);
        hash_mesh(&mut h, &normalized.mesh);
        let (hi, lo) = h.finish128();
        CacheKey { hi, lo }
    }
}

/// Rounds a canonical-space coordinate onto the quantization grid.
fn quantize(v: f64) -> i64 {
    (v * QUANT_STEPS).round() as i64
}

/// Absorbs the quantized canonical mesh: vertex and triangle counts,
/// every vertex coordinate on the quantization grid, every triangle's
/// vertex indices. Vertex order and winding participate — the key
/// addresses content as exported, not a graph-isomorphism class.
fn hash_mesh(h: &mut KeyHasher, mesh: &TriMesh) {
    h.word(mesh.vertices.len() as u64);
    h.word(mesh.triangles.len() as u64);
    for v in &mesh.vertices {
        h.word(quantize(v.x) as u64);
        h.word(quantize(v.y) as u64);
        h.word(quantize(v.z) as u64);
    }
    for t in &mesh.triangles {
        h.word(u64::from(t[0]) | (u64::from(t[1]) << 32));
        h.word(u64::from(t[2]));
    }
}

/// Per-lane absorb step: xor, multiply by an odd constant, rotate —
/// a bijection on `u64` for fixed key, the construction proven out by
/// `tdess-core::checksum64`.
fn absorb_word(acc: u64, w: u64, k: u64) -> u64 {
    (acc ^ w).wrapping_mul(k).rotate_left(29)
}

/// Lane keys of the first four-lane state (the `checksum64` set).
const KEYS_A: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];

/// Lane keys of the second, independently keyed state.
const KEYS_B: [u64; 4] = [
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0x8EBC_6AF0_9C88_C6E3,
    0x5897_89E5_0417_1BCD,
];

/// Word-oriented two-state hasher producing 128 bits. Each input word
/// is absorbed into one lane of each state (round-robin), so the two
/// 64-bit halves are computed over the same stream under independent
/// keys and initial values.
struct KeyHasher {
    a: [u64; 4],
    b: [u64; 4],
    lane: usize,
    len: u64,
}

impl KeyHasher {
    fn new() -> KeyHasher {
        KeyHasher {
            a: [
                0x243F_6A88_85A3_08D3,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            b: [
                0x4528_21E6_38D0_1377,
                0xBE54_66CF_34E9_0C6C,
                0xC0AC_29B7_C97C_50DD,
                0x3F84_D5B5_B547_0917,
            ],
            lane: 0,
            len: 0,
        }
    }

    fn word(&mut self, w: u64) {
        let lane = self.lane;
        self.a[lane] = absorb_word(self.a[lane], w, KEYS_A[lane]);
        self.b[lane] = absorb_word(self.b[lane], w, KEYS_B[lane]);
        self.lane = (lane + 1) & 3;
        self.len += 1;
    }

    fn finish128(self) -> (u64, u64) {
        (
            finish_state(&self.a, self.len),
            finish_state(&self.b, self.len),
        )
    }
}

/// Merges one state's lanes and avalanches (splitmix64 finalizer),
/// with the word count folded in so padded tails differ.
fn finish_state(acc: &[u64; 4], len: u64) -> u64 {
    let mut h = acc[0].rotate_left(1)
        ^ acc[1].rotate_left(7)
        ^ acc[2].rotate_left(12)
        ^ acc[3].rotate_left(18);
    h ^= len;
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_features::normalize;
    use tdess_geom::{primitives, Mat3, Vec3};

    fn extractor() -> FeatureExtractor {
        FeatureExtractor {
            voxel_resolution: 32,
            ..Default::default()
        }
    }

    fn key_of(mesh: &TriMesh, ex: &FeatureExtractor) -> CacheKey {
        CacheKey::derive(&normalize(mesh).unwrap(), ex)
    }

    /// A nonlinear warp that breaks mirror/central symmetry and
    /// eigenvalue degeneracy, so the canonical pose is uniquely
    /// determined and rigid-motion invariance is exact (symmetric
    /// shapes may legally canonicalize into symmetry-equivalent poses
    /// — see module docs).
    fn asymmetric(mut mesh: TriMesh) -> TriMesh {
        mesh.map_vertices(|v| {
            Vec3::new(
                v.x + 0.15 * v.y * v.y,
                v.y + 0.07 * v.z * v.z * v.z + 0.03 * v.x,
                v.z + 0.11 * v.x * v.x,
            )
        });
        mesh
    }

    #[test]
    fn identical_meshes_share_a_key() {
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        assert_eq!(
            key_of(&mesh, &extractor()),
            key_of(&mesh.clone(), &extractor())
        );
    }

    #[test]
    fn rigid_motion_collides_scaling_does_not() {
        let ex = extractor();
        // A warped torus: enough vertices that the odd moments are
        // decisively nonzero (a warped 8-vertex box still flips).
        let base = asymmetric(primitives::torus(1.5, 0.4, 24, 12));
        let k0 = key_of(&base, &ex);

        // A rigidly moved copy normalizes to the same canonical mesh;
        // every extracted feature agrees up to float noise, so the key
        // must collide.
        let mut moved = base.clone();
        moved.rotate(&Mat3::rotation_axis_angle(Vec3::new(0.3, 1.0, -0.2), 1.1));
        moved.translate(Vec3::new(5.0, -2.0, 3.0));
        assert_eq!(
            key_of(&moved, &ex),
            k0,
            "rigid motion must not change the key"
        );

        // A uniformly scaled copy has different geometric parameters
        // (S/V, scale, volume) — the key must differ.
        let mut scaled = base.clone();
        scaled.scale_uniform(2.0);
        assert_ne!(
            key_of(&scaled, &ex),
            k0,
            "scaling changes features, so the key"
        );
    }

    #[test]
    fn exporter_noise_collides() {
        let ex = extractor();
        let base = asymmetric(primitives::torus(1.5, 0.4, 24, 12));
        let k0 = key_of(&base, &ex);
        // Per-vertex relative noise at 1e-10, the level of a float
        // round trip through a different exporter.
        let mut noisy = base.clone();
        noisy.map_vertices(|v| Vec3::new(v.x * (1.0 + 1e-10), v.y * (1.0 - 1e-10), v.z + 1e-10));
        assert_eq!(key_of(&noisy, &ex), k0, "float noise must quantize away");
    }

    #[test]
    fn symmetric_shape_repeats_are_stable() {
        // Symmetric parts may miss across rigid motions (ambiguous
        // canonical pose), but bit-identical re-queries — the dominant
        // cached workload — must always collide.
        let ex = extractor();
        for mesh in [
            primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)),
            primitives::torus(1.5, 0.4, 24, 12),
        ] {
            assert_eq!(key_of(&mesh, &ex), key_of(&mesh.clone(), &ex));
        }
    }

    #[test]
    fn different_shapes_differ() {
        let ex = extractor();
        assert_ne!(
            key_of(&primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)), &ex),
            key_of(&primitives::cylinder(0.6, 2.5, 24), &ex)
        );
    }

    #[test]
    fn every_config_parameter_changes_the_key() {
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let base = FeatureExtractor {
            voxel_resolution: 32,
            spectrum_dim: 8,
        };
        let k0 = key_of(&mesh, &base);
        let res = FeatureExtractor {
            voxel_resolution: 48,
            ..base
        };
        assert_ne!(
            key_of(&mesh, &res),
            k0,
            "voxel resolution must be in the key"
        );
        let dim = FeatureExtractor {
            spectrum_dim: 12,
            ..base
        };
        assert_ne!(key_of(&mesh, &dim), k0, "spectrum dim must be in the key");
    }

    #[test]
    fn pipeline_version_changes_the_key() {
        let mesh = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let nm = normalize(&mesh).unwrap();
        let ex = extractor();
        let k1 = CacheKey::derive_versioned(&nm, &ex, 1);
        let k2 = CacheKey::derive_versioned(&nm, &ex, 2);
        assert_ne!(k1, k2, "a pipeline version bump must miss");
        assert_eq!(
            CacheKey::derive(&nm, &ex),
            CacheKey::derive_versioned(&nm, &ex, PIPELINE_VERSION)
        );
    }

    #[test]
    fn topology_participates() {
        let ex = extractor();
        let base = primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5));
        let nm = normalize(&base).unwrap();
        let k0 = CacheKey::derive(&nm, &ex);
        // Same vertex set, one triangle's winding flipped: content
        // differs as exported, so the key differs.
        let mut rewound = nm.clone();
        if let Some(t) = rewound.mesh.triangles.first_mut() {
            t.swap(0, 1);
        }
        assert_ne!(CacheKey::derive(&rewound, &ex), k0);
    }
}
