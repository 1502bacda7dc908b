//! Property tests: the R-tree must agree with the linear scan on every
//! query, for any point set, any fan-out configuration and any way of
//! building the tree — ties included: both order equal distances by
//! payload.

use proptest::prelude::*;

use tdess_features::{FeatureExtractor, FeatureKind};
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

/// The dimension of every feature space: 3, 5, 8, 10, 32 and 64. The
/// kernel sums axes in blocks of 8, so 3, 5 and 10 end in a partial
/// block.
fn feature_dims() -> Vec<usize> {
    let extractor = FeatureExtractor::default();
    let mut dims: Vec<usize> = FeatureKind::ALL.map(|k| extractor.dim(k)).to_vec();
    dims.sort_unstable();
    dims.dedup();
    dims
}

/// Points shaped like the 3–64-d feature spaces: some axes constant
/// over the whole set (an always-empty histogram bin), and values drawn
/// from a small pool, so duplicates and distance ties are common.
fn arb_feature_points(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(prop::collection::vec(0.0f64..1.0, dim..=dim), 1..40),
        prop::collection::vec(any::<bool>(), dim..=dim),
        prop::collection::vec(0usize..40, 1..200),
    )
        .prop_map(|(pool, constant, picks)| {
            picks
                .into_iter()
                .map(|i| {
                    pool[i % pool.len()]
                        .iter()
                        .zip(&constant)
                        .map(|(&v, &c)| if c { 0.25 } else { v })
                        .collect()
                })
                .collect()
        })
}

/// The Euclidean distance, summed in axis order.
fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The largest pairwise distance.
fn brute_force_diameter(points: &[&[f64]]) -> f64 {
    let mut full = 0.0f64;
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            full = full.max(distance(a, b));
        }
    }
    full
}

/// The largest distance from `q` to a point.
fn brute_force_farthest(points: &[&[f64]], q: &[f64]) -> f64 {
    points.iter().map(|p| distance(q, p)).fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every feature space's dimension, trees built three ways —
    /// STR bulk loading, one insert at a time, and bulk loading
    /// followed by inserts and removes — answer `knn` and
    /// `within_distance` exactly as the linear scan does (payloads,
    /// order and distance bits), `diameter` is the brute-force
    /// pairwise maximum bit for bit, and `farthest` the brute-force
    /// maximum distance from the query bit for bit, also when
    /// `at_least` ties with it.
    #[test]
    fn high_dimensional_trees_match_linear_however_built(
        dim in 0usize..6,
        pts in arb_feature_points(64),
        removed in prop::collection::vec(any::<bool>(), 200),
        qi in 0usize..200, k in 1usize..30, r in 0.0f64..1.5,
    ) {
        let dims = feature_dims();
        prop_assert_eq!(&dims, &[3, 5, 8, 10, 32, 64]);
        let dim = dims[dim];
        let pts: Vec<Vec<f64>> = pts.into_iter().map(|p| p[..dim].to_vec()).collect();
        let config = RTreeConfig { max_entries: 8, min_entries: 3 };
        let entries: Vec<(Vec<f64>, usize)> = pts.iter().cloned().zip(0..).collect();
        let packed = RTree::bulk_load(dim, config, entries.clone());
        let mut inserted = RTree::new(dim, config);
        let mut all = LinearScan::new(dim);
        for (p, i) in &entries {
            inserted.insert(p.clone(), *i);
            all.insert(p.clone(), *i);
        }
        let half = entries.len() / 2;
        let mut churned = RTree::bulk_load(dim, config, entries[..half].to_vec());
        for (p, i) in &entries[half..] {
            churned.insert(p.clone(), *i);
        }
        let mut kept = LinearScan::new(dim);
        for ((p, i), &gone) in entries.iter().zip(&removed) {
            if gone {
                prop_assert_eq!(churned.remove(p, |&x| x == *i), Some(*i));
            } else {
                kept.insert(p.clone(), *i);
            }
        }
        let routes = [(&packed, &all), (&inserted, &all), (&churned, &kept)];
        let stored = pts[qi % pts.len()].clone();
        let between: Vec<f64> = stored.iter().zip(&pts[0]).map(|(a, b)| 0.5 * (a + b)).collect();
        for (tree, scan) in routes {
            tree.check_invariants().map_err(TestCaseError::fail)?;
            let points: Vec<&[f64]> = scan.iter().map(|(p, _)| p).collect();
            for q in [&stored, &between] {
                let mut s = QueryStats::default();
                prop_assert_eq!(bits(&tree.knn(q, k, &mut s)), bits(&scan.knn(q, k, &mut s)));
                prop_assert_eq!(
                    bits(&tree.within_distance(q, r, &mut s)),
                    bits(&scan.within_distance(q, r, &mut s))
                );
                let far = brute_force_farthest(&points, q);
                for at_least in [0.0, far, r] {
                    let got = tree.farthest(q, at_least);
                    if far >= at_least {
                        prop_assert_eq!(got.to_bits(), far.to_bits(), "at_least {}", at_least);
                    } else {
                        prop_assert!(got < at_least, "{} for at_least {}", got, at_least);
                    }
                }
            }
            prop_assert_eq!(tree.diameter(0.0).to_bits(), brute_force_diameter(&points).to_bits());
        }
    }
}

/// Inserts into a bulk-loaded tree must not degrade it: after 400
/// one-at-a-time inserts into 2,000 shell-histogram-like 32-d points
/// (two axes constant, mass in a bump that differs per family), a
/// top-10 query checks at most 1.25× the entries it checked on the
/// bulk-loaded tree, averaged over 100 unseen queries.
#[test]
fn inserts_keep_the_bulk_loaded_query_cost() {
    const DIM: usize = 32;
    let mut s = 0x5eed_1234_u64;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let anchors: Vec<Vec<f64>> = (0..26)
        .map(|_| {
            let (mu, sigma) = (8.0 + 20.0 * rnd(), 2.0 + 4.0 * rnd());
            let mut h: Vec<f64> = (0..DIM)
                .map(|i| {
                    if i < 2 {
                        0.0
                    } else {
                        (-((i as f64 - mu) / sigma).powi(2)).exp()
                    }
                })
                .collect();
            let total: f64 = h.iter().sum();
            h.iter_mut().for_each(|v| *v /= total);
            h
        })
        .collect();
    let mut shape = |i: usize| -> Vec<f64> {
        anchors[i % anchors.len()]
            .iter()
            .map(|v| v * (1.0 + 0.04 * (2.0 * rnd() - 1.0)))
            .collect()
    };
    let base: Vec<(Vec<f64>, usize)> = (0..2000).map(|i| (shape(i), i)).collect();
    let extra: Vec<Vec<f64>> = (0..400).map(&mut shape).collect();
    let queries: Vec<Vec<f64>> = (0..100).map(&mut shape).collect();

    let bulk = RTree::bulk_load(DIM, RTreeConfig::default(), base);
    let mut churned = bulk.clone();
    for (i, p) in extra.into_iter().enumerate() {
        churned.insert(p, 2000 + i);
    }
    let entries_per_query = |tree: &RTree<usize>| {
        let mut stats = QueryStats::default();
        for q in &queries {
            tree.knn(q, 10, &mut stats);
        }
        stats.entries_checked as f64 / queries.len() as f64
    };
    let (before, after) = (entries_per_query(&bulk), entries_per_query(&churned));
    assert!(
        after <= 1.25 * before,
        "{after:.0} entries per query after inserts, {before:.0} bulk-loaded"
    );
}
