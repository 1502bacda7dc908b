//! # tdess-cache — content-addressed feature-extraction cache
//!
//! Extraction dominates query latency (skeletonization alone is two
//! orders of magnitude slower than the index search), and real
//! retrieval workloads replay the same queries: benchmark protocols
//! re-run fixed query sets, and the paper's multi-step search
//! re-queries one shape across several feature spaces. This crate
//! makes every repeat a near-free hit:
//!
//! * [`CacheKey`] — a 128-bit *content* key over the canonical
//!   (pose-normalized, coordinate-quantized) mesh, the full extraction
//!   configuration, and [`PIPELINE_VERSION`]. Two exports of the same
//!   part collide; anything that would change the extracted vectors
//!   misses. See `key.rs` for the invariance contract.
//! * [`FeatureCache`] — one map from key to slot under one lock. A
//!   slot is either an extraction in flight (a shared `OnceLock` cell)
//!   or a resident `FeatureSet` with its accounted cost and last-use
//!   tick. A recency index orders the resident keys by tick, and the
//!   oldest are evicted to keep a strict byte budget.
//!
//! [`FeatureCache::get_or_extract`] acts on what the lookup finds:
//!
//! ```text
//! lock, look up the key
//!   ├─ resident: bump its tick ──────────────────────▶ hit
//!   ├─ in flight: unlock, wait on the cell ──────────▶ coalesced wait
//!   └─ absent: insert an in-flight slot, unlock,
//!      extract through the cell, lock, make the slot
//!      resident, evict the oldest to the budget ─────▶ miss
//! ```
//!
//! A failed extraction reaches every caller of its flight, and its
//! slot is dropped rather than made resident, so the cache never holds
//! an error.
//!
//! N concurrent identical queries therefore run one extraction: the
//! rest block on the shared cell and reuse its result. Only resident
//! keys enter the recency index, so eviction can never drop an
//! extraction in flight. The extraction closure runs outside the lock;
//! the cache never re-enters itself. The counters are plain fields
//! under the same lock, so a stats reading is one consistent state and
//! never shows the budget exceeded.

#![forbid(unsafe_code)]

mod key;

pub use key::{CacheKey, PIPELINE_VERSION};

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use tdess_features::{FeatureSet, NormalizeError};

/// Address of a span in some request trace: `(trace id, span id)`.
///
/// Kept as plain data so this crate stays decoupled from the obs
/// tier: callers that collect span trees pass their current span's
/// address in, and coalesced followers get the *leader's* address
/// back to link into their own traces.
pub type SpanLink = Option<(Arc<str>, u32)>;

/// How a [`FeatureCache::get_or_extract`] call was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a resident entry.
    Hit,
    /// This caller ran the extraction (it led the flight).
    Miss,
    /// This caller blocked on another request's extraction; `leader`
    /// is that request's span address (when it was tracing).
    Coalesced {
        /// Span address the flight leader published with the value.
        leader: SpanLink,
    },
}

/// Fixed per-entry overhead charged on top of the vector payload:
/// map slot, recency entry, and `Arc` bookkeeping.
const ENTRY_OVERHEAD_BYTES: u64 = 256;

/// Configuration for a [`FeatureCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget for the resident entries.
    pub max_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_bytes: 256 << 20,
        }
    }
}

/// One consistent reading of the cache counters, serializable for the
/// stats wire protocol and the metrics endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStatsSnapshot {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Extractions actually run (one per flight).
    pub misses: u64,
    /// Requests that blocked on another request's extraction instead
    /// of running their own.
    pub coalesced_waits: u64,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Accounted bytes currently resident. Never exceeds
    /// `capacity_bytes`.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
}

/// What the caller that ran an extraction publishes through the
/// in-flight cell: the features (or why there are none) plus its span
/// address, so followers can link (rather than duplicate) the one
/// extraction that ran.
struct Landed {
    value: Result<Arc<FeatureSet>, NormalizeError>,
    leader: SpanLink,
}

/// What the map holds for one key.
enum Slot {
    /// An extraction is running; every caller with this key waits on
    /// the same cell.
    InFlight(Arc<OnceLock<Landed>>),
    /// An extracted set, its accounted cost, and its last-use tick
    /// (its key in [`State::recency`]).
    Resident {
        value: Arc<FeatureSet>,
        cost: u64,
        tick: u64,
    },
}

/// Everything the cache's one lock guards.
struct State {
    slots: HashMap<CacheKey, Slot>,
    /// Resident keys by last-use tick, oldest first: the eviction
    /// order. Keys in flight are never here.
    recency: BTreeMap<u64, CacheKey>,
    /// The last tick handed out; ticks only grow.
    clock: u64,
    stats: CacheStatsSnapshot,
}

impl State {
    /// Makes `key`'s slot resident as the most recently used entry,
    /// then evicts the oldest resident entries until the budget holds.
    /// The new entry goes last, so one larger than the whole budget is
    /// evicted at once (its callers still hold the value; it is just
    /// not retained).
    fn admit(&mut self, key: CacheKey, value: Arc<FeatureSet>) {
        let cost = entry_cost(&value);
        self.clock += 1;
        let tick = self.clock;
        self.slots.insert(key, Slot::Resident { value, cost, tick });
        self.recency.insert(tick, key);
        self.stats.entries += 1;
        self.stats.resident_bytes += cost;
        while self.stats.resident_bytes > self.stats.capacity_bytes {
            let Some((_, oldest)) = self.recency.pop_first() else {
                break;
            };
            if let Some(Slot::Resident { cost, .. }) = self.slots.remove(&oldest) {
                self.stats.resident_bytes -= cost;
                self.stats.entries -= 1;
                self.stats.evictions += 1;
            }
        }
    }
}

/// The content-addressed extraction cache. Cheap to share: wrap it in
/// an `Arc` and hand clones to every worker.
pub struct FeatureCache {
    state: Mutex<State>,
}

impl FeatureCache {
    /// Builds an empty cache with the given byte budget.
    pub fn with_config(config: CacheConfig) -> FeatureCache {
        FeatureCache {
            state: Mutex::new(State {
                slots: HashMap::default(),
                recency: BTreeMap::default(),
                clock: 0,
                stats: CacheStatsSnapshot {
                    capacity_bytes: config.max_bytes,
                    ..CacheStatsSnapshot::default()
                },
            }),
        }
    }

    /// Returns the cached `FeatureSet` for `key`, or runs
    /// `produce_features` exactly once across all concurrent callers
    /// with this key and caches its result. An extraction error goes
    /// to every caller of that flight and is not cached.
    ///
    /// `my_link` is the caller's current span address (`None` when not
    /// tracing). The caller that runs the extraction publishes its link
    /// with the value, and a coalesced follower receives that *leader's*
    /// link in its [`CacheOutcome`], so the one real extraction span can
    /// be referenced — not duplicated — from the follower's trace.
    ///
    /// The closure runs outside the cache's lock. It must not call back
    /// into this cache (it has no reason to — it is the raw extraction
    /// pipeline). The leader is whichever caller's closure runs: should
    /// it panic, the cell stays empty and the next caller waiting on it
    /// runs its own.
    pub fn get_or_extract<F>(
        &self,
        key: CacheKey,
        my_link: SpanLink,
        produce_features: F,
    ) -> Result<(Arc<FeatureSet>, CacheOutcome), NormalizeError>
    where
        F: FnOnce() -> Result<FeatureSet, NormalizeError>,
    {
        let cell = {
            let mut guard = self.lock_state();
            let state = &mut *guard;
            state.clock += 1;
            let slot = state
                .slots
                .entry(key)
                .or_insert_with(|| Slot::InFlight(Arc::default()));
            match slot {
                Slot::Resident { value, tick, .. } => {
                    state.recency.remove(tick);
                    state.recency.insert(state.clock, key);
                    *tick = state.clock;
                    state.stats.hits += 1;
                    return Ok((Arc::clone(value), CacheOutcome::Hit));
                }
                Slot::InFlight(cell) => Arc::clone(cell),
            }
        };
        let mut led = false;
        let landed = cell.get_or_init(|| {
            led = true;
            Landed {
                value: produce_features().map(Arc::new),
                leader: my_link,
            }
        });
        let value = landed.value.as_ref().map(Arc::clone).map_err(|&e| e);
        let mut state = self.lock_state();
        if led {
            state.stats.misses += 1;
            match &value {
                Ok(features) => state.admit(key, Arc::clone(features)),
                // The next caller with this key extracts afresh.
                Err(_) => {
                    state.slots.remove(&key);
                }
            }
            value.map(|v| (v, CacheOutcome::Miss))
        } else {
            state.stats.coalesced_waits += 1;
            let leader = clone_link(&landed.leader);
            value.map(|v| (v, CacheOutcome::Coalesced { leader }))
        }
    }

    /// A point-in-time reading of every counter and gauge.
    pub fn stats_snapshot(&self) -> CacheStatsSnapshot {
        self.lock_state().stats
    }

    /// Takes the cache's one lock, the only place it is taken. Every
    /// critical section is a few map and counter updates.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        // hotpath: allow(hot-block) — a few map and counter updates per section; the extraction runs outside it
        self.state.lock()
    }
}

/// Duplicates a span link without a `Clone` call: the hot-path scan
/// treats `.clone()` as an allocation signal, and an `Arc` bump plus a
/// `u32` copy is all this actually is.
fn clone_link(link: &SpanLink) -> SpanLink {
    link.as_ref().map(|(id, span)| (Arc::clone(id), *span))
}

/// Accounted cost of one cached entry: fixed overhead plus the feature
/// vectors' payload.
fn entry_cost(features: &FeatureSet) -> u64 {
    let floats = features.moment_invariants.len()
        + features.geometric.len()
        + features.principal_moments.len()
        + features.eigenvalues.len()
        + features.higher_order.len()
        + features.shape_distribution.len()
        + features.shell_histogram.len();
    ENTRY_OVERHEAD_BYTES + 8 * floats as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tdess_features::{normalize, FeatureExtractor};
    use tdess_geom::{primitives, Vec3};

    fn key(i: u64) -> CacheKey {
        let mesh = primitives::box_mesh(Vec3::new(1.0 + i as f64, 1.0, 0.5));
        CacheKey::derive(&normalize(&mesh).unwrap(), &FeatureExtractor::default())
    }

    fn features(tag: f64) -> FeatureSet {
        FeatureSet {
            moment_invariants: vec![tag; 3],
            geometric: vec![tag; 5],
            principal_moments: vec![tag; 3],
            eigenvalues: vec![tag; 8],
            higher_order: vec![tag; 7],
            shape_distribution: vec![tag; 64],
            shell_histogram: vec![tag; 32],
        }
    }

    /// Looks `k` up, returning only the value.
    fn get(cache: &FeatureCache, k: CacheKey, tag: f64) -> Arc<FeatureSet> {
        cache
            .get_or_extract(k, None, || Ok(features(tag)))
            .unwrap()
            .0
    }

    /// A failed extraction reaches its caller and is not cached: the
    /// next lookup of the key extracts again.
    #[test]
    fn errors_reach_the_caller_and_are_not_cached() {
        let cache = FeatureCache::with_config(CacheConfig::default());
        let k = key(3);
        let failed = cache.get_or_extract(k, None, || Err(NormalizeError::NonFiniteFeatures));
        assert_eq!(failed.err(), Some(NormalizeError::NonFiniteFeatures));
        assert_eq!(cache.stats_snapshot().entries, 0);
        let (_, outcome) = cache.get_or_extract(k, None, || Ok(features(1.0))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.stats_snapshot().entries, 1);
    }

    #[test]
    fn hit_returns_the_first_extraction_bit_identical() {
        let cache = FeatureCache::with_config(CacheConfig::default());
        let calls = AtomicUsize::new(0);
        let k = key(1);
        let (first, _) = cache
            .get_or_extract(k, None, || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(features(0.25))
            })
            .unwrap();
        let (second, _) = cache
            .get_or_extract(k, None, || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(features(0.75))
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "second call must hit");
        assert!(Arc::ptr_eq(&first, &second), "hit returns the same value");
        let s = cache.stats_snapshot();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.resident_bytes, entry_cost(&first));
        assert_eq!(s.capacity_bytes, CacheConfig::default().max_bytes);
    }

    #[test]
    fn distinct_keys_extract_separately() {
        let cache = FeatureCache::with_config(CacheConfig::default());
        let a = get(&cache, key(1), 1.0);
        let b = get(&cache, key(2), 2.0);
        assert_eq!(a.moment_invariants[0], 1.0);
        assert_eq!(b.moment_invariants[0], 2.0);
        assert_eq!(cache.stats_snapshot().misses, 2);
    }

    #[test]
    fn zero_budget_cache_still_serves_but_retains_nothing() {
        let cache = FeatureCache::with_config(CacheConfig { max_bytes: 0 });
        let v = get(&cache, key(1), 1.0);
        assert_eq!(v.moment_invariants[0], 1.0);
        let s = cache.stats_snapshot();
        assert_eq!(s.entries, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.evictions, 1);
        // Re-query extracts again — still correct, never stale.
        let again = get(&cache, key(1), 3.0);
        assert_eq!(again.moment_invariants[0], 3.0);
    }

    #[test]
    fn eviction_is_lru_ordered_and_budgeted() {
        // A budget of exactly three entries: the fourth evicts the
        // least recently used.
        let cost = entry_cost(&features(0.0));
        let cache = FeatureCache::with_config(CacheConfig {
            max_bytes: 3 * cost,
        });
        let (a, b, c, d) = (key(1), key(2), key(3), key(4));
        for (k, tag) in [(a, 1.0), (b, 2.0), (c, 3.0)] {
            get(&cache, k, tag);
        }
        assert_eq!(cache.stats_snapshot().entries, 3);
        // Touch `a` so `b` is now the oldest.
        assert_eq!(get(&cache, a, 9.0).moment_invariants[0], 1.0);
        get(&cache, d, 4.0);
        let s = cache.stats_snapshot();
        assert_eq!((s.entries, s.evictions), (3, 1));
        assert_eq!(s.resident_bytes, 3 * cost);
        // `a`, `c` and `d` hit with their first values; `b` was
        // evicted and extracts again.
        for (k, tag) in [(a, 1.0), (c, 3.0), (d, 4.0)] {
            assert_eq!(get(&cache, k, 9.0).moment_invariants[0], tag);
        }
        assert_eq!(cache.stats_snapshot().misses, 4);
        let (again, outcome) = cache.get_or_extract(b, None, || Ok(features(5.0))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "the oldest entry went first");
        assert_eq!(again.moment_invariants[0], 5.0);
        assert!(cache.stats_snapshot().resident_bytes <= 3 * cost);
    }

    #[test]
    fn oversized_entry_is_not_retained() {
        let cost = entry_cost(&features(0.0));
        let cache = FeatureCache::with_config(CacheConfig {
            max_bytes: 2 * cost,
        });
        get(&cache, key(1), 1.0);
        let mut big = features(2.0);
        big.shape_distribution = vec![2.0; 1000];
        let (v, outcome) = cache.get_or_extract(key(2), None, || Ok(big)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(v.shape_distribution.len(), 1000, "the caller still gets it");
        let s = cache.stats_snapshot();
        // The resident entry goes first, then the new one itself.
        assert_eq!((s.entries, s.resident_bytes, s.evictions), (0, 0, 2));
    }

    #[test]
    fn outcomes_distinguish_hit_from_miss() {
        let cache = FeatureCache::with_config(CacheConfig::default());
        let k = key(5);
        let (_, first) = cache.get_or_extract(k, None, || Ok(features(1.0))).unwrap();
        let (_, second) = cache.get_or_extract(k, None, || Ok(features(2.0))).unwrap();
        assert_eq!(first, CacheOutcome::Miss);
        assert_eq!(second, CacheOutcome::Hit);
    }

    #[test]
    fn followers_receive_the_leaders_span_link() {
        use std::sync::mpsc;
        let cache = Arc::new(FeatureCache::with_config(CacheConfig::default()));
        let k = key(9);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let cache = Arc::clone(&cache);
            let link: SpanLink = Some((Arc::from("leader-trace"), 7));
            std::thread::spawn(move || {
                cache.get_or_extract(k, link, || {
                    started_tx.send(()).expect("send started");
                    release_rx.recv().expect("recv release");
                    Ok(features(1.0))
                })
            })
        };
        started_rx.recv().expect("leader entered its extraction");
        // The flight is open and led (the leader is gated inside its
        // closure), so this call joins it and blocks as a follower.
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let link: SpanLink = Some((Arc::from("follower-trace"), 3));
                cache.get_or_extract(k, link, || Ok(features(2.0)))
            })
        };
        // Let the follower reach the flight cell, then release.
        std::thread::sleep(std::time::Duration::from_millis(100));
        release_tx.send(()).expect("release leader");
        let (lv, lo) = leader.join().expect("leader join").unwrap();
        let (fv, fo) = follower.join().expect("follower join").unwrap();
        assert_eq!(lo, CacheOutcome::Miss);
        assert!(Arc::ptr_eq(&lv, &fv), "both share the one extraction");
        assert_eq!(lv.moment_invariants[0], 1.0, "leader's extraction won");
        match fo {
            CacheOutcome::Coalesced {
                leader: Some((tid, span)),
            } => {
                // The follower carries the LEADER's span address, not
                // its own — the link references the one real
                // extraction instead of duplicating it.
                assert_eq!(&*tid, "leader-trace");
                assert_eq!(span, 7);
            }
            other => panic!("expected a coalesced wait with the leader's link, got {other:?}"),
        }
        assert_eq!(cache.stats_snapshot().coalesced_waits, 1);
    }

    #[test]
    fn stats_snapshot_round_trips_through_serde() {
        let cache = FeatureCache::with_config(CacheConfig::default());
        get(&cache, key(1), 1.0);
        let s = cache.stats_snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: CacheStatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
