//! Write-path property tests. A database derived from another with
//! `clone` shares its stored shapes and R-tree nodes, and a write then
//! copies only what it changes — the path `SearchServer` takes for
//! every insert and remove. Over random insert/remove sequences (with
//! precomputed synthetic features, so nothing is extracted), after
//! every write:
//!
//! * every snapshot taken earlier still answers a fixed query sweep
//!   bit-identically: no write leaks into shared structure;
//! * the derived database has the TDSS bytes, and gives the sweep
//!   answers (ids, distance and similarity bits, tie order, node-access
//!   counts), of a replay of the same writes on a copy reloaded from
//!   bytes, which shares nothing with it;
//! * every R-tree satisfies its invariants, and each space's `dmax` is
//!   the exact diameter of the stored vectors.
//!
//! A second property holds the answers to the stored set alone: the
//! four routes to a set S of shapes — `build(S)`, inserts of S one at a
//! time, `build(S ∪ {x}).remove(x)`, and a JSON and a TDSS round trip
//! of each — give the same hits, tie order, similarity bits and `dmax`.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;

use tdess_core::{load, load_binary_bytes, save, save_binary, Query, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet};
use tdess_geom::{primitives, Vec3};
use tdess_index::QueryStats;

/// One query's hits as `(id, distance bits, similarity bits)`.
type Hits = Vec<(u64, u64, u64)>;

/// One query's hits, with the traversal counts that pin the tree
/// shape.
type Answer = (Hits, QueryStats);

fn extractor() -> FeatureExtractor {
    FeatureExtractor {
        voxel_resolution: 8,
        ..Default::default()
    }
}

/// Synthetic features derived from `seed`. Coordinates are coarsely
/// quantized so exact distance ties, and with them tie order, are
/// common.
fn features(ex: &FeatureExtractor, seed: u64) -> FeatureSet {
    let mut s = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    let mut fill = |kind: FeatureKind| -> Vec<f64> {
        (0..ex.dim(kind))
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 8) as f64 * 0.5
            })
            .collect()
    };
    FeatureSet {
        moment_invariants: fill(FeatureKind::MomentInvariants),
        geometric: fill(FeatureKind::GeometricParams),
        principal_moments: fill(FeatureKind::PrincipalMoments),
        eigenvalues: fill(FeatureKind::Eigenvalues),
        higher_order: fill(FeatureKind::HigherOrder),
        shape_distribution: fill(FeatureKind::ShapeDistribution),
        shell_histogram: fill(FeatureKind::ShellHistogram),
    }
}

/// Top-k (kNN) and threshold (distance-ball) answers in every space.
fn sweep(db: &ShapeDatabase, queries: &[FeatureSet]) -> Vec<Answer> {
    let mut out = Vec::new();
    for q in queries {
        for kind in FeatureKind::ALL {
            for query in [Query::top_k(kind, 6), Query::threshold(kind, 0.6)] {
                let mut stats = QueryStats::default();
                let hits = db
                    .search_with_stats(q, &query, &mut stats)
                    .into_iter()
                    .map(|h| (h.id, h.distance.to_bits(), h.similarity.to_bits()))
                    .collect();
                out.push((hits, stats));
            }
        }
    }
    out
}

fn tdss(db: &ShapeDatabase) -> Vec<u8> {
    let mut buf = Vec::new();
    save_binary(db, &mut buf).expect("in-memory save");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn derived_snapshots_are_isolated_and_match_an_unshared_replay(
        initial in 0usize..48,
        base_seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u8..5, 0u64..1_000_000), 1..36),
    ) {
        let ex = extractor();
        let mesh = primitives::box_mesh(Vec3::ONE); // stored, never extracted
        let queries: Vec<FeatureSet> = (0..2).map(|i| features(&ex, u64::MAX - i)).collect();
        let mut base = ShapeDatabase::new(ex);
        base.insert_batch_precomputed(
            (0..initial as u64)
                .map(|i| (format!("s{i}"), mesh.clone(), features(&ex, base_seed + i)))
                .collect(),
        );
        let mut replay = load_binary_bytes(&tdss(&base), Path::new("<replay>"))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut current = Arc::new(base);
        let mut history: Vec<(Arc<ShapeDatabase>, Vec<Answer>)> = Vec::new();

        for (step, &(op, arg)) in ops.iter().enumerate() {
            history.push((Arc::clone(&current), sweep(&current, &queries)));
            let mut next = (*current).clone();
            if op < 3 || next.is_empty() {
                let f = features(&ex, arg);
                let name = format!("w{step}");
                let id = next.insert_precomputed(name.clone(), mesh.clone(), f.clone());
                prop_assert_eq!(id, replay.insert_precomputed(name, mesh.clone(), f));
            } else {
                let id = next.shapes()[arg as usize % next.len()].id;
                prop_assert!(next.remove(id).is_ok());
                prop_assert!(replay.remove(id).is_ok());
            }
            next.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(tdss(&next), tdss(&replay), "TDSS bytes after write {}", step);
            prop_assert_eq!(
                sweep(&next, &queries),
                sweep(&replay, &queries),
                "sweep after write {}", step
            );
            for (i, (snap, answers)) in history.iter().enumerate() {
                prop_assert_eq!(
                    &sweep(snap, &queries),
                    answers,
                    "snapshot {} changed by write {}", i, step
                );
            }
            current = Arc::new(next);
        }
    }
}

/// One route's answers: every sweep query's hits as `(id, distance
/// bits, similarity bits)`, and each space's `dmax` bits.
fn answers(db: &ShapeDatabase, queries: &[FeatureSet]) -> (Vec<Hits>, Vec<u64>) {
    let hits = sweep(db, queries)
        .into_iter()
        .map(|(hits, _)| hits)
        .collect();
    let dmax = FeatureKind::ALL.map(|k| db.dmax(k).to_bits()).to_vec();
    (hits, dmax)
}

/// `db` reloaded from its JSON and from its TDSS bytes.
fn round_trips(db: &ShapeDatabase) -> [ShapeDatabase; 2] {
    let mut json = Vec::new();
    save(db, &mut json).expect("in-memory JSON save");
    [
        load(json.as_slice()).expect("JSON reload"),
        load_binary_bytes(&tdss(db), Path::new("<round trip>")).expect("TDSS reload"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_route_to_a_set_gives_the_same_answers(
        picks in prop::collection::vec(0u64..12, 1..40),
        extra in (0u8..3, 0u64..12),
    ) {
        let ex = extractor();
        let mesh = primitives::box_mesh(Vec3::ONE);
        // Seeds drawn from a pool of twelve: duplicate vectors are the
        // rule, as are distance ties in the quantized coordinates.
        let set: Vec<(String, FeatureSet)> = picks
            .iter()
            .enumerate()
            .map(|(i, &seed)| (format!("s{i}"), features(&ex, seed)))
            .collect();
        // The extra shape duplicates a member, is a fresh vector, or
        // lies beyond every member in every space, so that its remove
        // must recompute each diameter.
        let x = match extra {
            (0, i) => set[i as usize % set.len()].1.clone(),
            (1, seed) => features(&ex, 1000 + seed),
            (_, seed) => {
                let f = features(&ex, 1000 + seed);
                let far = |v: Vec<f64>| v.into_iter().map(|x| x + 100.0).collect();
                FeatureSet {
                    moment_invariants: far(f.moment_invariants),
                    geometric: far(f.geometric),
                    principal_moments: far(f.principal_moments),
                    eigenvalues: far(f.eigenvalues),
                    higher_order: far(f.higher_order),
                    shape_distribution: far(f.shape_distribution),
                    shell_histogram: far(f.shell_histogram),
                }
            }
        };
        let items = |with_x: bool| -> Vec<(String, tdess_geom::TriMesh, FeatureSet)> {
            set.iter()
                .map(|(name, f)| (name.clone(), mesh.clone(), f.clone()))
                .chain(with_x.then(|| ("x".to_string(), mesh.clone(), x.clone())))
                .collect()
        };
        let queries = [
            features(&ex, u64::MAX),
            set[0].1.clone(),
            x.clone(),
        ];

        let mut built = ShapeDatabase::new(ex);
        built.insert_batch_precomputed(items(false));
        let mut inserted = ShapeDatabase::new(ex);
        for (name, mesh, f) in items(false) {
            inserted.insert_precomputed(name, mesh, f);
        }
        let mut removed = ShapeDatabase::new(ex);
        let ids = removed.insert_batch_precomputed(items(true));
        let x_id = *ids.last().expect("the batch holds x");
        prop_assert!(removed.remove(x_id).is_ok());

        let want = answers(&built, &queries);
        for (route, db) in [("build", built), ("inserts", inserted), ("build + x - x", removed)] {
            db.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(&answers(&db, &queries), &want, "{}", route);
            for (format, reloaded) in ["JSON", "TDSS"].into_iter().zip(round_trips(&db)) {
                prop_assert_eq!(&answers(&reloaded, &queries), &want, "{} via {}", route, format);
            }
        }
    }
}
