//! Lock-free event counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count that any thread may add to.
///
/// Each counter is complete in itself: it publishes no other memory,
/// and several counters read one after another are not promised to be
/// mutually consistent. So Relaxed is the correct ordering on both
/// sides, and an atomic add never loses an increment.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Counts `n` more events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // audit: ordering(pure event counter; atomic RMW loses no increments, no data published)
    }

    /// The events counted so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // audit: ordering(pure event counter; no data published, loose snapshot documented)
    }
}
