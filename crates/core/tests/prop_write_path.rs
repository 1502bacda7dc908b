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
//! * every R-tree satisfies its invariants.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;

use tdess_core::{load_binary_bytes, save_binary, Query, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet};
use tdess_geom::{primitives, Vec3};
use tdess_index::QueryStats;

/// One query's hits as `(id, distance bits, similarity bits)`, with
/// the traversal counts that pin the tree shape.
type Answer = (Vec<(u64, u64, u64)>, QueryStats);

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
