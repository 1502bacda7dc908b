//! Flight recorder: a fixed-capacity ring of completed request traces
//! with tail-based sampling.
//!
//! Head-based sampling decides *before* a request runs and therefore
//! throws away exactly the traces worth keeping — the slow tail and
//! the errors, which are not identifiable up front. The recorder
//! samples at the *tail* instead: every completed [`RequestTrace`] is
//! offered, and the retention policy is
//!
//! 1. **error traces** are always kept;
//! 2. **slow traces** (duration ≥ [`RecorderConfig::slow`]) are always
//!    kept;
//! 3. everything else is kept one-in-[`RecorderConfig::sample_one_in`]
//!    as a background sample of normal behaviour.
//!
//! A retained trace replaces the oldest one once the ring is full, so
//! memory stays bounded at `capacity` traces no matter the traffic.
//! The ring and its counters sit under one `Mutex`: an offer, made
//! once per finished request, is a few field updates under it, and a
//! snapshot clones `Arc`s out.

use crate::span::RequestTrace;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Upper bound on the ring capacity (a trace can hold a few KiB of
/// spans; 4096 bounds the recorder to low tens of MiB worst-case).
pub const MAX_RECORDER_CAPACITY: usize = 4096;

/// Tail-sampling policy knobs.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Ring capacity in traces (clamped to 1..=[`MAX_RECORDER_CAPACITY`]).
    pub capacity: usize,
    /// Duration at or above which a trace is always retained.
    pub slow: Duration,
    /// Keep one in this many unremarkable traces; `0` or `1` keeps
    /// every trace (useful for tests and low-traffic servers).
    pub sample_one_in: u64,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            capacity: 128,
            slow: Duration::from_secs(1),
            sample_one_in: 16,
        }
    }
}

/// Retention counters, as monotonically increasing totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Traces offered to the recorder.
    pub seen: u64,
    /// Retained because the request errored.
    pub kept_error: u64,
    /// Retained for running at or over the slow threshold.
    pub kept_slow: u64,
    /// Retained by the probabilistic sampler.
    pub kept_sampled: u64,
    /// Offered but not retained.
    pub skipped: u64,
}

/// The ring buffer of retained traces. One per server; shared via
/// `Arc` between the request workers (writers) and the trace
/// endpoints (readers).
#[derive(Debug)]
pub struct FlightRecorder {
    slow_us: u64,
    sample_one_in: u64,
    capacity: usize,
    ring: Mutex<Ring>,
}

/// What the recorder's lock guards: the retained traces in offer
/// order, and the counters.
#[derive(Debug)]
struct Ring {
    traces: VecDeque<Arc<RequestTrace>>,
    stats: RecorderStats,
}

impl FlightRecorder {
    /// Builds a recorder with the given policy.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        let capacity = cfg.capacity.clamp(1, MAX_RECORDER_CAPACITY);
        FlightRecorder {
            slow_us: cfg.slow.as_micros() as u64,
            sample_one_in: cfg.sample_one_in,
            capacity,
            ring: Mutex::new(Ring {
                traces: VecDeque::with_capacity(capacity),
                stats: RecorderStats::default(),
            }),
        }
    }

    /// The slow-retention threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_us
    }

    /// Offers a completed trace; applies the tail-sampling policy and,
    /// when the trace is retained, stamps [`RequestTrace::retained`]
    /// and stores it in place of the oldest one once the ring is full.
    /// Returns whether the trace was kept.
    pub fn offer(&self, mut t: RequestTrace) -> bool {
        let mut ring = self.lock_ring();
        let stats = &mut ring.stats;
        let n = stats.seen;
        stats.seen += 1;
        let reason = if t.error {
            stats.kept_error += 1;
            "error"
        } else if t.dur_us >= self.slow_us {
            stats.kept_slow += 1;
            "slow"
        } else if self.sample_one_in <= 1 || n.wrapping_rem(self.sample_one_in) == 0 {
            stats.kept_sampled += 1;
            "sampled"
        } else {
            stats.skipped += 1;
            return false;
        };
        t.retained = reason.into();
        if ring.traces.len() == self.capacity {
            ring.traces.pop_front();
        }
        ring.traces.push_back(Arc::new(t));
        true
    }

    /// Snapshots retained traces, oldest first. `last > 0` keeps only
    /// the `last` most recent; `slow_only` keeps only slow and error
    /// traces (the "interesting" retention classes).
    pub fn snapshot(&self, last: usize, slow_only: bool) -> Vec<Arc<RequestTrace>> {
        let mut out = Vec::with_capacity(self.capacity.min(MAX_RECORDER_CAPACITY));
        for t in &self.lock_ring().traces {
            if !slow_only || t.is_interesting() {
                out.push(Arc::clone(t));
            }
        }
        out.sort_by_key(|t| (t.ts_unix_us, t.dur_us));
        if last > 0 && out.len() > last {
            let excess = out.len() - last;
            out.drain(..excess);
        }
        out
    }

    /// Current retention counters.
    pub fn stats(&self) -> RecorderStats {
        self.lock_ring().stats
    }

    /// Takes the recorder's one lock, the only place it is taken.
    fn lock_ring(&self) -> MutexGuard<'_, Ring> {
        // hotpath: allow(hot-block) — a few field updates or `Arc` clones per section, once per finished request or trace read
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: &str, dur_us: u64, error: bool) -> RequestTrace {
        RequestTrace {
            trace_id: id.to_string(),
            name: "req".to_string(),
            ts_unix_us: dur_us, // distinct, ordered timestamps
            dur_us,
            error,
            retained: String::new(),
            dropped_spans: 0,
            spans: Vec::new(),
        }
    }

    fn recorder(capacity: usize, slow_us: u64, one_in: u64) -> FlightRecorder {
        FlightRecorder::new(RecorderConfig {
            capacity,
            slow: Duration::from_micros(slow_us),
            sample_one_in: one_in,
        })
    }

    #[test]
    fn slow_and_error_always_kept_fast_sampled() {
        let rec = recorder(64, 1000, 4);
        let mut kept_fast = 0;
        for i in 0..40u64 {
            if rec.offer(trace(&format!("fast{i}"), 10, false)) {
                kept_fast += 1;
            }
        }
        assert_eq!(kept_fast, 10); // exactly one in four
        assert!(rec.offer(trace("slow", 5000, false)));
        assert!(rec.offer(trace("err", 10, true)));
        let stats = rec.stats();
        assert_eq!(stats.seen, 42);
        assert_eq!(stats.kept_slow, 1);
        assert_eq!(stats.kept_error, 1);
        assert_eq!(stats.kept_sampled, 10);
        assert_eq!(stats.skipped, 30);
    }

    #[test]
    fn retained_reason_is_stamped() {
        let rec = recorder(8, 1000, 1);
        rec.offer(trace("a", 10, false));
        rec.offer(trace("b", 2000, false));
        rec.offer(trace("c", 10, true));
        let all = rec.snapshot(0, false);
        let reason = |id: &str| {
            all.iter()
                .find(|t| t.trace_id == id)
                .map(|t| t.retained.clone())
                .unwrap()
        };
        assert_eq!(reason("a"), "sampled");
        assert_eq!(reason("b"), "slow");
        assert_eq!(reason("c"), "error");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = recorder(4, 1000, 1);
        for i in 0..10u64 {
            rec.offer(trace(&format!("t{i}"), i, false));
        }
        let all = rec.snapshot(0, false);
        assert_eq!(all.len(), 4);
        let ids: Vec<&str> = all.iter().map(|t| t.trace_id.as_str()).collect();
        assert_eq!(ids, vec!["t6", "t7", "t8", "t9"]); // oldest first
    }

    #[test]
    fn snapshot_filters_and_limits() {
        let rec = recorder(16, 1000, 1);
        rec.offer(trace("fast1", 10, false));
        rec.offer(trace("slow1", 3000, false));
        rec.offer(trace("err1", 20, true));
        rec.offer(trace("fast2", 30, false));

        let slow = rec.snapshot(0, true);
        let ids: Vec<&str> = slow.iter().map(|t| t.trace_id.as_str()).collect();
        assert_eq!(ids, vec!["err1", "slow1"]); // ts order (20 < 3000)

        let last2 = rec.snapshot(2, false);
        assert_eq!(last2.len(), 2);
        // The two most recent by timestamp.
        let ids: Vec<&str> = last2.iter().map(|t| t.trace_id.as_str()).collect();
        assert_eq!(ids, vec!["fast2", "slow1"]);
    }

    #[test]
    fn capacity_is_clamped() {
        let rec = recorder(0, 1000, 1);
        assert!(rec.offer(trace("only", 1, false)));
        assert_eq!(rec.snapshot(0, false).len(), 1);
    }

    #[test]
    fn concurrent_offers_and_snapshots_are_safe() {
        let rec = Arc::new(recorder(32, 50, 2));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    rec.offer(trace(&format!("w{w}-{i}"), i % 100, false));
                    if i % 17 == 0 {
                        let snap = rec.snapshot(8, false);
                        assert!(snap.len() <= 8);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        let stats = rec.stats();
        assert_eq!(stats.seen, 800);
        assert_eq!(
            stats.kept_error + stats.kept_slow + stats.kept_sampled + stats.skipped,
            800
        );
        assert!(rec.snapshot(0, false).len() <= 32);
    }
}
