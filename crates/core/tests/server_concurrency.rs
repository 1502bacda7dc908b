//! Concurrency regression and stress tests for the snapshot-isolated
//! SERVER tier.
//!
//! The named regression: `SearchServer` used to hold the database
//! read lock through feature extraction (the expensive part of a
//! query), so one slow search blocked every insert — and queued
//! writers in turn blocked all later readers. With snapshot
//! isolation, a search in flight must never delay a write.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use tdess_core::{bulk_insert, Query, SearchServer, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, TriMesh, Vec3};

fn extractor() -> FeatureExtractor {
    FeatureExtractor {
        voxel_resolution: 16,
        ..Default::default()
    }
}

fn boxes(n: usize) -> Vec<(String, TriMesh)> {
    (0..n)
        .map(|i| {
            let s = 1.0 + 0.15 * i as f64;
            (
                format!("box-{i}"),
                primitives::box_mesh(Vec3::new(2.0 * s, 1.0 * s, 0.5 * s)),
            )
        })
        .collect()
}

/// The lock-starvation regression (crates/core/src/server.rs:42-59 at
/// the time of the bug): a search is held in flight mid-computation
/// while the main thread inserts. Under the old read-lock design the
/// insert blocked until the search finished (this test would hang);
/// under snapshot isolation it completes immediately, and the search
/// still answers from its original, consistent snapshot.
#[test]
fn insert_completes_while_search_in_flight() {
    let mut db = ShapeDatabase::new(extractor());
    bulk_insert(&mut db, boxes(2), 2).unwrap();
    let server = SearchServer::new(db);

    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel();

    let reader = server.clone();
    let search_thread = thread::spawn(move || {
        // A search of arbitrary duration: it runs against one
        // snapshot, and the channel keeps it "in flight" while the
        // main thread writes.
        let outcome = reader.with_db(|db| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            let q = db.shapes()[0].features.clone();
            (
                db.len(),
                db.search(&q, &Query::top_k(FeatureKind::PrincipalMoments, 10)),
            )
        });
        done_tx.send(outcome).unwrap();
    });

    started_rx.recv().unwrap();
    // The search is now in flight. The insert must complete without
    // waiting for it (the old design deadlocks right here).
    let id = server
        .insert("ring", primitives::torus(1.5, 0.4, 16, 8))
        .unwrap();
    assert_eq!(server.len(), 3);
    // The search really is still running.
    assert!(
        done_rx.try_recv().is_err(),
        "search finished before the insert could race it"
    );

    release_tx.send(()).unwrap();
    let (seen_len, hits) = done_rx.recv().unwrap();
    search_thread.join().unwrap();

    // The in-flight search saw its snapshot, not the insert.
    assert_eq!(seen_len, 2);
    assert!(hits.iter().all(|h| h.id != id));
    // New searches see the new snapshot.
    let q = server.snapshot().get(id).unwrap().features.clone();
    let hits = server.search_features(&q, &Query::top_k(FeatureKind::PrincipalMoments, 3));
    assert!(hits.iter().any(|h| h.id == id));
}

/// A full search_mesh (extraction included, on a large mesh) runs
/// concurrently with writes; both sides complete and the search's
/// results are internally consistent.
#[test]
fn search_mesh_and_writes_overlap() {
    let mut db = ShapeDatabase::new(extractor());
    bulk_insert(&mut db, boxes(3), 2).unwrap();
    let server = SearchServer::new(db);

    let searcher = server.clone();
    let search_thread = thread::spawn(move || {
        let mesh = primitives::torus(1.5, 0.4, 48, 24);
        searcher
            .search_mesh(&mesh, &Query::top_k(FeatureKind::PrincipalMoments, 10))
            .unwrap()
    });
    // Interleave writes while the search extracts.
    let id = server
        .insert("sphere", primitives::uv_sphere(1.0, 12, 6))
        .unwrap();
    server.remove(id).unwrap();
    let hits = search_thread.join().unwrap();
    // The search answered from one snapshot: at most the 3 or 4
    // shapes of some consistent state, never the removed id twice.
    assert!(hits.len() <= 4);
    let mut ids: Vec<_> = hits.iter().map(|h| h.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), hits.len(), "duplicate ids in one snapshot");
    assert!(hits.iter().all(|h| (0.0..=1.0).contains(&h.similarity)));
}

/// Stress: searches, inserts, and removes from many threads. Every
/// search must observe a consistent snapshot — `len()` and search
/// results taken inside one `with_db` always agree.
#[test]
fn concurrent_stress_consistent_snapshots() {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    let initial = bulk_insert(&mut db, boxes(4), 2).unwrap();
    let server = SearchServer::new(db);

    crossbeam::scope(|scope| {
        // Searchers: consistency-check snapshot len against results.
        for _ in 0..3 {
            let server = server.clone();
            scope.spawn(move |_| {
                for i in 0..12 {
                    let k = 3 + (i % 5);
                    server.with_db(|db| {
                        let len = db.len();
                        let q = db.shapes()[i % len.max(1)].features.clone();
                        let hits = db.search(&q, &Query::top_k(FeatureKind::PrincipalMoments, k));
                        assert_eq!(hits.len(), k.min(len), "snapshot len/result mismatch");
                        for h in &hits {
                            assert!(db.get(h.id).is_some(), "hit not in the same snapshot");
                        }
                    });
                    thread::sleep(Duration::from_millis(1));
                }
            });
        }
        // Inserter.
        {
            let server = server.clone();
            scope.spawn(move |_| {
                for i in 0..3 {
                    let s = 0.7 + 0.2 * i as f64;
                    server
                        .insert(
                            format!("extra-{i}"),
                            primitives::box_mesh(Vec3::new(s, 2.0 * s, 3.0 * s)),
                        )
                        .unwrap();
                }
            });
        }
        // Remover: racing removes may legitimately miss; errors must
        // be UnknownShape, never corruption.
        {
            let server = server.clone();
            let victim = initial[1];
            scope.spawn(move |_| {
                thread::sleep(Duration::from_millis(2));
                let _ = server.remove(victim);
                // Second remove of the same id must fail cleanly.
                assert!(server.remove(victim).is_err());
            });
        }
    })
    .unwrap();

    // Final state: 4 initial + 3 inserted − 1 removed.
    assert_eq!(server.len(), 6);
    // 3 inserts + 1 successful remove published snapshots.
    assert_eq!(server.metrics().snapshot_swaps, 4);
}

/// Hits are named from the snapshot the search ran on. The bug: the
/// network front end named `SearchMesh`/`MultiStep` hits from a second
/// snapshot taken after the search, so a `Remove` published during an
/// extraction turned real hits into empty names. A search here holds
/// its snapshot while the removal of its top hit publishes; the hit
/// must still resolve to its name.
#[test]
fn hit_names_come_from_the_snapshot_searched() {
    let mut db = ShapeDatabase::new(extractor());
    bulk_insert(&mut db, boxes(3), 2).unwrap();
    let server = SearchServer::new(db);
    let target = std::sync::Arc::clone(&server.snapshot().shapes()[1]);
    let query = Query::top_k(FeatureKind::PrincipalMoments, 3);

    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let reader = server.clone();
    let probe = std::sync::Arc::clone(&target);
    let search_thread = thread::spawn(move || {
        let snap = reader.snapshot();
        started_tx.send(()).unwrap();
        release_rx.recv().unwrap();
        let by_mesh = reader.search_mesh_on(&snap, &probe.mesh, &query).unwrap();
        let by_features = reader.search_features_on(&snap, &probe.features, &query);
        [by_mesh, by_features].map(|hits| {
            hits.iter()
                .map(|h| (h.id, snap.get(h.id).map(|s| s.name.clone())))
                .collect::<Vec<_>>()
        })
    });

    started_rx.recv().unwrap();
    // The search holds its snapshot; its top hit is removed, and the
    // removal is published before the search runs.
    server.remove(target.id).unwrap();
    assert_eq!(server.name_of(target.id), None);
    release_tx.send(()).unwrap();
    for named in search_thread.join().unwrap() {
        assert_eq!(named[0], (target.id, Some(target.name.clone())));
        assert!(named.iter().all(|(_, name)| name.is_some()), "{named:?}");
    }
}
