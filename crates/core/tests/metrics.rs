//! Aggregation tests for [`ServerMetrics`] under concurrent queries
//! and writers: lock-free counter conservation and snapshot-swap
//! monotonicity.

use tdess_core::{Query, SearchServer, ServerMetrics, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, Vec3};
use tdess_index::QueryStats;

fn server() -> SearchServer {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
        .unwrap();
    db.insert("sphere", primitives::uv_sphere(1.0, 10, 5))
        .unwrap();
    db.insert("rod", primitives::cylinder(0.3, 4.0, 10))
        .unwrap();
    SearchServer::new(db)
}

#[test]
fn fresh_server_reports_absent_latencies() {
    // The server keeps counters only; latency belongs to the front
    // end's request clock. A fresh server has counted nothing.
    assert_eq!(server().metrics(), ServerMetrics::default());
}

#[test]
fn concurrent_queries_conserve_counts() {
    let server = server();
    let probe = server.snapshot().shapes()[0].features.clone();
    let threads = 8;
    let per_thread = 10;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    let hits = server
                        .search_features(&probe, &Query::top_k(FeatureKind::PrincipalMoments, 2));
                    assert_eq!(hits.len(), 2);
                }
            });
        }
    });
    let m = server.metrics();
    let n = threads * per_thread;
    assert_eq!(m.queries_served, n);
    // Every query ran on the same snapshot with the same probe, so no
    // counter may lose or gain a single increment under contention:
    // the totals are exactly n times one query's work.
    let mut one = QueryStats::default();
    server.snapshot().search_with_stats(
        &probe,
        &Query::top_k(FeatureKind::PrincipalMoments, 2),
        &mut one,
    );
    assert!(one.nodes_visited > 0);
    let n = n as usize;
    assert_eq!(
        m.index_stats,
        QueryStats {
            nodes_visited: n * one.nodes_visited,
            leaves_visited: n * one.leaves_visited,
            entries_checked: n * one.entries_checked,
        }
    );
}

#[test]
fn snapshot_swaps_are_monotonic_and_count_writes() {
    let server = server();
    let mut last = server.metrics();
    assert_eq!(last.snapshot_swaps, 0);
    for i in 0..5 {
        let id = server
            .insert(format!("extra-{i}"), primitives::box_mesh(Vec3::ONE))
            .unwrap();
        let m = server.metrics();
        // One write, one published snapshot; reads never roll it back.
        assert_eq!(m.snapshot_swaps, last.snapshot_swaps + 1);
        // Writes alone count no queries.
        assert_eq!(m.queries_served, last.queries_served);
        assert_eq!(m.index_stats, last.index_stats);
        last = m;
        if i == 4 {
            server.remove(id).unwrap();
            assert_eq!(server.metrics().snapshot_swaps, last.snapshot_swaps + 1);
        }
    }
}

#[test]
fn concurrent_writers_and_readers_agree_on_totals() {
    let server = server();
    let probe = server.snapshot().shapes()[0].features.clone();
    let writers = 4;
    let writes_per = 3;
    let readers = 4;
    let reads_per = 8;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let server = &server;
            scope.spawn(move || {
                for i in 0..writes_per {
                    server
                        .insert(
                            format!("w{w}-{i}"),
                            primitives::box_mesh(Vec3::new(1.0 + i as f64, 1.0, 1.0)),
                        )
                        .unwrap();
                }
            });
        }
        for _ in 0..readers {
            let server = &server;
            let probe = probe.clone();
            scope.spawn(move || {
                let mut seen = 0;
                for _ in 0..reads_per {
                    server.search_features(&probe, &Query::top_k(FeatureKind::Eigenvalues, 1));
                    // Monotonic under concurrency: successive metric
                    // snapshots never lose swaps or served queries.
                    let m: ServerMetrics = server.metrics();
                    assert!(m.snapshot_swaps >= seen);
                    seen = m.snapshot_swaps;
                }
            });
        }
    });
    let m = server.metrics();
    assert_eq!(m.snapshot_swaps, writers * writes_per);
    assert_eq!(m.queries_served, readers * reads_per);
}
