//! Concurrency guarantees of the extraction cache:
//!
//! * singleflight — N threads missing on one key run exactly one
//!   extraction, and every thread gets the same (bit-identical) value;
//! * budget — the resident-bytes gauge never exceeds the configured
//!   capacity, even while concurrent admits and evictions race;
//! * accounting — counters balance after the dust settles.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use tdess_cache::{CacheConfig, CacheKey, FeatureCache};
use tdess_features::{normalize, FeatureExtractor, FeatureSet};
use tdess_geom::{primitives, Vec3};

fn key(i: u64) -> CacheKey {
    let mesh = primitives::box_mesh(Vec3::new(1.0 + i as f64, 1.0, 0.5));
    CacheKey::derive(&normalize(&mesh).unwrap(), &FeatureExtractor::default())
}

fn features(tag: f64, floats: usize) -> FeatureSet {
    FeatureSet {
        moment_invariants: vec![tag; floats],
        geometric: Vec::new(),
        principal_moments: Vec::new(),
        eigenvalues: Vec::new(),
        higher_order: Vec::new(),
        shape_distribution: Vec::new(),
        shell_histogram: Vec::new(),
    }
}

#[test]
fn n_threads_one_key_exactly_one_extraction() {
    const THREADS: usize = 16;
    let cache = FeatureCache::with_config(CacheConfig::default());
    let extractions = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    let k = key(1);

    let results: Vec<Arc<FeatureSet>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    cache
                        .get_or_extract(k, None, || {
                            extractions.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that the
                            // herd piles up behind it.
                            thread::sleep(Duration::from_millis(50));
                            Ok(features(0.5, 32))
                        })
                        .unwrap()
                        .0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        extractions.load(Ordering::SeqCst),
        1,
        "the herd must coalesce into one extraction"
    );
    for r in &results {
        assert!(
            Arc::ptr_eq(r, &results[0]),
            "every caller shares the leader's value"
        );
        assert_eq!(r.moment_invariants, results[0].moment_invariants);
    }
    let s = cache.stats_snapshot();
    assert_eq!(s.misses, 1);
    assert_eq!(
        s.hits + s.coalesced_waits,
        (THREADS - 1) as u64,
        "every non-leader either coalesced or hit: {s:?}"
    );
    assert_eq!(s.entries, 1);
}

#[test]
fn budget_holds_under_concurrent_admits() {
    const WRITERS: usize = 8;
    const KEYS_PER_WRITER: u64 = 40;
    // ~300 floats ≈ 2.6 KiB per entry; budget fits only a fraction of
    // the 320 distinct keys, so eviction churns the whole run.
    let cache = Arc::new(FeatureCache::with_config(CacheConfig {
        max_bytes: 64 << 10,
    }));
    let done = AtomicBool::new(false);
    let over_budget = AtomicUsize::new(0);

    thread::scope(|scope| {
        // A sampler hammers the gauge while writers churn: stats are
        // read under the cache's lock, never mid-eviction, so no sample
        // may ever exceed capacity.
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let s = cache.stats_snapshot();
                if s.resident_bytes > s.capacity_bytes {
                    over_budget.fetch_add(1, Ordering::SeqCst);
                }
                std::hint::spin_loop();
            }
        });
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..KEYS_PER_WRITER {
                        let k = key(w as u64 * KEYS_PER_WRITER + i + 1);
                        let (v, _) = cache
                            .get_or_extract(k, None, || Ok(features(i as f64, 300)))
                            .unwrap();
                        assert_eq!(v.moment_invariants[0], i as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(
        over_budget.load(Ordering::SeqCst),
        0,
        "resident_bytes must never be observed above capacity"
    );
    let s = cache.stats_snapshot();
    assert!(
        s.resident_bytes <= s.capacity_bytes,
        "final state in budget: {s:?}"
    );
    assert!(s.evictions > 0, "the workload must actually churn: {s:?}");
    assert_eq!(
        s.misses,
        (WRITERS as u64) * KEYS_PER_WRITER,
        "every distinct key extracts exactly once (no premature eviction \
         of in-flight results breaks this invariant): {s:?}"
    );
}

#[test]
fn herds_on_distinct_keys_do_not_serialize_each_other() {
    // Two herds on two keys: each coalesces internally, and both
    // leaders run concurrently (the test deadlocks on a timeout if
    // one flight blocked the other, since each leader waits for the
    // other herd's barrier).
    const PER_HERD: usize = 4;
    let cache = FeatureCache::with_config(CacheConfig::default());
    let extractions = AtomicUsize::new(0);
    let leaders = Barrier::new(2);
    let (k1, k2) = (key(1), key(2));

    thread::scope(|scope| {
        let (cache, extractions, leaders) = (&cache, &extractions, &leaders);
        let mut handles = Vec::new();
        for k in [k1, k2] {
            for _ in 0..PER_HERD {
                handles.push(scope.spawn(move || {
                    cache
                        .get_or_extract(k, None, || {
                            extractions.fetch_add(1, Ordering::SeqCst);
                            // Rendezvous with the *other* key's leader —
                            // only possible if flights are independent.
                            leaders.wait();
                            Ok(features(1.0, 8))
                        })
                        .unwrap()
                }));
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    assert_eq!(extractions.load(Ordering::SeqCst), 2);
    let s = cache.stats_snapshot();
    assert_eq!(s.misses, 2);
    assert_eq!(s.entries, 2);
}
