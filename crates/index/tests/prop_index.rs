//! Property tests: the R-tree must agree with the linear scan on every
//! query, for any point set and any fan-out configuration — ties
//! included: both order equal distances by payload.

use proptest::prelude::*;

use tdess_index::{LinearScan, QueryStats, RTree, RTreeConfig};

fn arb_points(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, dim..=dim), 1..300)
}

fn build(dim: usize, pts: &[Vec<f64>], max_entries: usize) -> (RTree<usize>, LinearScan<usize>) {
    let mut t = RTree::new(
        dim,
        RTreeConfig {
            max_entries,
            min_entries: (max_entries / 2).max(1).min(max_entries / 2).max(1),
        },
    );
    let mut l = LinearScan::new(dim);
    for (i, p) in pts.iter().enumerate() {
        t.insert(p.clone(), i);
        l.insert(p.clone(), i);
    }
    (t, l)
}

/// Points drawn from a pool of at most eight distinct vectors, so
/// exact duplicates, and with them distance ties, are the rule.
fn arb_pooled_points(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(prop::collection::vec(-10.0f64..10.0, dim..=dim), 1..8),
        prop::collection::vec(0usize..8, 1..250),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|i| pool[i % pool.len()].clone())
                .collect()
        })
}

/// A hit list as (payload, distance bits): equal lists mean the same
/// shapes in the same order at bit-identical distances.
fn bits(hits: &[(&[f64], &usize, f64)]) -> Vec<(usize, u64)> {
    hits.iter().map(|&(_, &i, d)| (i, d.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn knn_matches_linear(pts in arb_points(3), qx in -120.0f64..120.0, qy in -120.0f64..120.0,
                          qz in -120.0f64..120.0, k in 1usize..20) {
        let (t, l) = build(3, &pts, 8);
        t.check_invariants().map_err(TestCaseError::fail)?;
        let q = [qx, qy, qz];
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        prop_assert_eq!(bits(&t.knn(&q, k, &mut s1)), bits(&l.knn(&q, k, &mut s2)));
    }

    /// With duplicates forced, `knn` and `within_distance` return
    /// exactly the linear scan's list — same payloads, same order,
    /// same distance bits — whether the tree was built by inserts or
    /// by STR bulk loading.
    #[test]
    fn tied_hits_match_linear_in_order(pts in arb_pooled_points(3), qi in 0usize..250,
                                       k in 1usize..40, r in 0.0f64..20.0) {
        let (inserted, l) = build(3, &pts, 6);
        let packed = RTree::bulk_load(
            3,
            RTreeConfig { max_entries: 6, min_entries: 3 },
            pts.iter().cloned().zip(0..).collect(),
        );
        // Query from a stored point (ties at distance 0) and from a
        // point between two stored ones.
        let stored = pts[qi % pts.len()].clone();
        let between: Vec<f64> = stored.iter().zip(&pts[0]).map(|(a, b)| 0.5 * (a + b)).collect();
        for q in [stored, between] {
            let mut s = QueryStats::default();
            let want_knn = bits(&l.knn(&q, k, &mut s));
            let want_ball = bits(&l.within_distance(&q, r, &mut s));
            for t in [&inserted, &packed] {
                prop_assert_eq!(&bits(&t.knn(&q, k, &mut s)), &want_knn);
                prop_assert_eq!(&bits(&t.within_distance(&q, r, &mut s)), &want_ball);
            }
        }
    }

    #[test]
    fn ball_query_matches_linear(pts in arb_points(4), r in 0.0f64..150.0) {
        let (t, l) = build(4, &pts, 12);
        let q = [0.0, 0.0, 0.0, 0.0];
        let mut s = QueryStats::default();
        prop_assert_eq!(bits(&t.within_distance(&q, r, &mut s)), bits(&l.within_distance(&q, r, &mut s)));
    }

    #[test]
    fn removal_preserves_agreement(pts in arb_points(3), seed in 0u64..1000) {
        let (mut t, mut l) = build(3, &pts, 8);
        // Remove roughly half the points, pseudo-randomly.
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
        for (i, p) in pts.iter().enumerate() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            if s % 2 == 0 {
                let a = t.remove(p, |&x| x == i);
                let b = l.remove(p, |&x| x == i);
                prop_assert_eq!(a.is_some(), b.is_some());
            }
        }
        prop_assert_eq!(t.len(), l.len());
        t.check_invariants().map_err(TestCaseError::fail)?;
        let q = [1.0, 2.0, 3.0];
        let mut st = QueryStats::default();
        prop_assert_eq!(bits(&t.knn(&q, 5, &mut st)), bits(&l.knn(&q, 5, &mut st)));
    }

    /// On clustered data the R-tree must prune: kNN touches far fewer
    /// entries than the linear scan for large point sets.
    #[test]
    fn knn_prunes_on_clustered_data(seed in 0u64..100) {
        let n_clusters = 20usize;
        let per = 100usize;
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut t: RTree<usize> = RTree::with_dim(3);
        let mut id = 0usize;
        for c in 0..n_clusters {
            let cx = (c as f64) * 50.0;
            for _ in 0..per {
                t.insert(vec![cx + rnd(), rnd(), rnd()], id);
                id += 1;
            }
        }
        let mut stats = QueryStats::default();
        let got = t.knn(&[250.0, 0.5, 0.5], 10, &mut stats);
        prop_assert_eq!(got.len(), 10);
        // Pruning bound: far fewer entry checks than the 2000 points.
        prop_assert!(stats.entries_checked < 1200,
                     "checked {} entries of 2000", stats.entries_checked);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clones share nodes, so a write to one tree must leave every
    /// earlier clone exactly as it was, and must build the same tree a
    /// never-cloned replay of the same writes builds. The small fan-out
    /// makes splits, root growth and condense-reinsertion frequent.
    #[test]
    fn clones_are_isolated_from_each_others_writes(
        pts in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 2..=2), 1..80),
        ops in prop::collection::vec((0u8..3, 0usize..10_000), 1..50),
    ) {
        let config = RTreeConfig { max_entries: 4, min_entries: 2 };
        let mut tree: RTree<usize> = RTree::new(2, config);
        let mut replay: RTree<usize> = RTree::new(2, config);
        let mut live: Vec<(Vec<f64>, usize)> = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(p.clone(), i);
            replay.insert(p.clone(), i);
            live.push((p.clone(), i));
        }
        let mut history: Vec<(RTree<usize>, String)> = Vec::new();
        for (step, (op, pick)) in ops.into_iter().enumerate() {
            history.push((tree.clone(), format!("{tree:?}")));
            if op == 0 || live.is_empty() {
                let p: Vec<f64> = pts[pick % pts.len()].iter().map(|v| v + 0.5).collect();
                let id = pts.len() + step;
                tree.insert(p.clone(), id);
                replay.insert(p.clone(), id);
                live.push((p, id));
            } else {
                let (p, id) = live.swap_remove(pick % live.len());
                prop_assert_eq!(tree.remove(&p, |&x| x == id), Some(id));
                prop_assert_eq!(replay.remove(&p, |&x| x == id), Some(id));
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(format!("{tree:?}"), format!("{replay:?}"));
            for (old, debug) in &history {
                prop_assert_eq!(&format!("{old:?}"), debug);
            }
        }
    }
}
