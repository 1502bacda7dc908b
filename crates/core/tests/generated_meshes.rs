//! No mesh a client can send breaks a search or the stored database.
//!
//! Seeded meshes from six families of hostile input — soups with
//! repeated indices, boxes at extreme scales, a vertex pulled far out,
//! tiny spheres far from the origin, boxes far apart, and duplicated,
//! reversed or degenerate faces — go through a cached `SearchServer`.
//! Every mesh passes `TriMesh::check_input`, as a mesh reader would
//! demand. Each must get finite distances and similarities in all
//! seven spaces or `DbError::Extraction`, and its insert must succeed
//! or fail the same way. Every third accepted insert is removed again.
//! Every `dmax` stays finite and the exact diameter of its space
//! (checked every [`CHECK_EVERY`] removes and at the end), and the
//! database survives a TDSS round trip. A panic fails the test.
//!
//! `TDESS_GENERATED_MESHES` sets the mesh count (default 360); a
//! release run with 100000 covers far more of each family.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdess_core::{
    load_from_path, save_to_path_binary, CacheConfig, DbError, Query, SearchServer, ShapeDatabase,
};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, TriMesh, Vec3};

const SEED: u64 = 0x1bad_cafe;

/// Removes between two checks of the database's invariants, `dmax`
/// included: each check recomputes every diameter.
const CHECK_EVERY: usize = 16;

/// `10^e` with `e` drawn from `lo..=hi`, with a random sign.
fn power(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    sign * 10f64.powf(rng.gen_range(lo..=hi))
}

fn far_vector(rng: &mut StdRng, max_exp: f64) -> Vec3 {
    Vec3::new(
        power(rng, 0.0, max_exp),
        power(rng, 0.0, max_exp),
        power(rng, 0.0, max_exp),
    )
}

/// Mesh `i` of the sequence: families in turn.
fn generate(rng: &mut StdRng, i: usize) -> TriMesh {
    match i % 6 {
        // A soup: random vertices, triangles with repeated indices.
        0 => {
            let n = rng.gen_range(3..12usize);
            let scale = power(rng, -3.0, 3.0).abs();
            let vertices = (0..n)
                .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()) * scale)
                .collect();
            let triangles = (0..rng.gen_range(1..16usize))
                .map(|_| {
                    let a = rng.gen_range(0..n as u32);
                    let b = if rng.gen_bool(0.3) {
                        a
                    } else {
                        rng.gen_range(0..n as u32)
                    };
                    [a, b, rng.gen_range(0..n as u32)]
                })
                .collect();
            TriMesh::new(vertices, triangles)
        }
        // A box with extents anywhere in 10^±60.
        1 => primitives::box_mesh(Vec3::new(
            power(rng, -60.0, 60.0).abs(),
            power(rng, -60.0, 60.0).abs(),
            power(rng, -60.0, 60.0).abs(),
        )),
        // A unit box with one vertex pulled out to 10^±120.
        2 => {
            let mut mesh = primitives::box_mesh(Vec3::ONE);
            let v = rng.gen_range(0..mesh.vertices.len());
            mesh.vertices[v] = Vec3::new(
                power(rng, -120.0, 120.0),
                power(rng, -120.0, 120.0),
                power(rng, -120.0, 120.0),
            );
            mesh
        }
        // A small sphere translated by up to 10³⁰⁰.
        3 => {
            let mut mesh = primitives::uv_sphere(power(rng, -3.0, 0.0).abs(), 8, 4);
            mesh.translate(far_vector(rng, 300.0));
            mesh
        }
        // Two boxes up to 10²⁰⁰ apart.
        4 => {
            let mut mesh = primitives::box_mesh(Vec3::ONE);
            let mut other = primitives::box_mesh(Vec3::new(2.0, 0.5, 1.0));
            other.translate(far_vector(rng, 200.0));
            mesh.append(&other);
            mesh
        }
        // A box with duplicated, reversed and degenerate faces.
        _ => {
            let mut mesh = primitives::box_mesh(Vec3::new(1.0, 2.0, 0.5));
            let faces = mesh.triangles.clone();
            for t in faces {
                match rng.gen_range(0..4) {
                    0 => mesh.triangles.push(t),
                    1 => mesh.triangles.push([t[0], t[2], t[1]]),
                    2 => mesh.triangles.push([t[0], t[0], t[1]]),
                    _ => {}
                }
            }
            mesh
        }
    }
}

#[test]
fn every_generated_mesh_gets_finite_answers_or_a_typed_error() {
    let count: usize = std::env::var("TDESS_GENERATED_MESHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(360);
    let extractor = FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    };
    let mut db = ShapeDatabase::new(extractor);
    for (name, mesh) in [
        ("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5))),
        ("ball", primitives::uv_sphere(1.0, 12, 6)),
        ("rod", primitives::cylinder(0.3, 4.0, 12)),
    ] {
        db.insert(name, mesh).unwrap();
    }
    let server = SearchServer::with_cache(db, CacheConfig::default());

    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut answered, mut refused, mut inserted, mut removed) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..count {
        let mesh = generate(&mut rng, i);
        mesh.check_input()
            .unwrap_or_else(|e| panic!("mesh {i} is not a valid input: {e:?}"));
        for kind in FeatureKind::ALL {
            match server.search_mesh(&mesh, &Query::top_k(kind, 3)) {
                Ok(hits) => {
                    answered += 1;
                    for h in hits {
                        assert!(
                            h.distance.is_finite() && h.similarity.is_finite(),
                            "mesh {i} ({kind:?}): {h:?}"
                        );
                    }
                }
                Err(DbError::Extraction(_)) => refused += 1,
                Err(e) => panic!("mesh {i} ({kind:?}): untyped failure {e:?}"),
            }
        }
        match server.insert(format!("generated-{i}"), mesh) {
            Ok(id) => {
                inserted += 1;
                if inserted % 3 == 0 {
                    server
                        .remove(id)
                        .unwrap_or_else(|e| panic!("mesh {i}: remove failed with {e:?}"));
                    removed += 1;
                    if removed % CHECK_EVERY == 0 {
                        check(&server.snapshot(), i);
                    }
                }
            }
            Err(DbError::Extraction(_)) => {}
            Err(e) => panic!("mesh {i}: insert failed with {e:?}"),
        }
    }
    eprintln!(
        "{count} meshes: {answered} answers, {refused} typed errors, \
         {inserted} inserted, {removed} removed again"
    );

    let snapshot = server.snapshot();
    check(&snapshot, count);
    let path = std::env::temp_dir().join(format!(
        "tdess_generated_meshes_{}.tdss",
        std::process::id()
    ));
    save_to_path_binary(&snapshot, &path).unwrap();
    let loaded = load_from_path(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.unwrap().len(), snapshot.len());
}

/// Every `dmax` is finite, and the database's invariants hold: each
/// `dmax` has the bits of its space's exact diameter.
fn check(db: &ShapeDatabase, after: usize) {
    for kind in FeatureKind::ALL {
        let dmax = db.dmax(kind);
        assert!(
            dmax.is_finite() && dmax >= 0.0,
            "{kind:?}: dmax {dmax} after mesh {after}"
        );
    }
    db.check_invariants()
        .unwrap_or_else(|e| panic!("after mesh {after}: {e}"));
}
