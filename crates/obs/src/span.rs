//! Hierarchical request spans: one tree per request, riding the same
//! thread-local ambient state as the trace-id machinery.
//!
//! A request handler opens a root span with [`begin_request`]; every
//! [`StageTimer`](crate::StageTimer) that fires while the trace is
//! active contributes a child span automatically (parented on the
//! innermost still-open span, so nested stages nest in the tree). Code
//! can attach key/value annotations to the innermost span with
//! [`annotate`] — the cache tier uses this for hit/miss/coalesced
//! outcomes — and cross-request links (a singleflight follower
//! pointing at the leader's extraction span) are built from
//! [`current_span_link`].
//!
//! [`TraceGuard::finish`] freezes the tree into a plain-data
//! [`RequestTrace`], which the flight recorder
//! ([`FlightRecorder`](crate::FlightRecorder)) retains under its
//! tail-sampling policy and the export layer
//! ([`chrome_trace_json`](crate::chrome_trace_json)) serializes.
//!
//! Span collection is independent of the `TDESS_LOG` level: a trace is
//! recorded if and only if a root span is open on the thread, so the
//! server can keep per-request waterfalls while event logging is off.
//! The cost when no trace is active is one thread-local flag read per
//! stage timer.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

/// Hard cap on spans kept per trace; beyond it spans are counted in
/// [`RequestTrace::dropped_spans`] instead of recorded.
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// Hard cap on annotations per span.
pub const MAX_TAGS_PER_SPAN: usize = 16;

/// Initial span/stack capacity: covers a multi-step query (extract's
/// five stages + per-step index/combine/rerank) without regrowth.
const SPAN_PREALLOC: usize = 16;

/// An annotation value. Variants avoid forcing an allocation at the
/// instrumentation site: values are stringified once, at
/// [`TraceGuard::finish`], off the per-stage path.
#[derive(Debug, Clone)]
pub enum TagValue {
    /// An unsigned integer (counts, ids, byte sizes).
    U64(u64),
    /// A static string (outcome labels like `"hit"`).
    Str(&'static str),
    /// A shared string (trace ids crossing request boundaries).
    Shared(Arc<str>),
}

impl std::fmt::Display for TagValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagValue::U64(v) => write!(f, "{v}"),
            TagValue::Str(s) => f.write_str(s),
            TagValue::Shared(s) => f.write_str(s),
        }
    }
}

/// Span-open duration sentinel: replaced by the real duration on
/// close, or by (trace end − span start) for spans still open when the
/// trace finishes.
const DUR_OPEN: u64 = u64::MAX;

/// A span under construction. Ids are 1-based indices into
/// `ActiveTrace::spans`; parent 0 means "root has no parent".
#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    parent: u32,
    start_us: u64,
    dur_us: u64,
    tags: Vec<(&'static str, TagValue)>,
}

/// The per-thread trace being collected for the current request.
#[derive(Debug)]
struct ActiveTrace {
    trace_id: Arc<str>,
    name: &'static str,
    ts_unix_us: u64,
    t0: Instant,
    spans: Vec<ActiveSpan>,
    /// Open-span stack; `stack[0]` is always the root span id 1.
    stack: Vec<u32>,
    error: bool,
    dropped: u32,
}

thread_local! {
    static CURRENT: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    /// Mirror of `CURRENT.is_some()`, readable without a borrow — the
    /// only cost stage timers pay when no trace is collecting.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// True when this thread is collecting a span tree.
pub fn trace_active() -> bool {
    ACTIVE.with(Cell::get)
}

fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Closes the root span when the request handler forgets to (early
/// return, panic unwind): [`TraceGuard::finish`] is the intended exit,
/// this drop is the safety net that clears the thread-local state.
#[derive(Debug)]
pub struct TraceGuard {
    armed: bool,
}

impl TraceGuard {
    /// A guard that owns no trace (nested `begin_request`).
    fn disarmed() -> TraceGuard {
        TraceGuard { armed: false }
    }

    /// Ends the request: freezes the span tree into a [`RequestTrace`]
    /// and clears the thread-local collection state. Returns `None`
    /// when the guard was disarmed (a trace was already active when it
    /// was created). Spans still open — including the root — are
    /// closed at the trace end time.
    pub fn finish(mut self, error: bool) -> Option<RequestTrace> {
        if !self.armed {
            return None;
        }
        self.armed = false;
        ACTIVE.with(|c| c.set(false));
        let mut t = CURRENT.with(|c| c.borrow_mut().take())?;
        let dur_us = t.t0.elapsed().as_micros() as u64;
        let error = error || t.error;
        let mut spans = Vec::with_capacity(t.spans.len().min(MAX_SPANS_PER_TRACE));
        for s in t.spans.drain(..) {
            let mut rec = freeze_span(s, dur_us);
            rec.id = spans.len() as u32 + 1;
            spans.push(rec);
        }
        Some(RequestTrace {
            trace_id: (*t.trace_id).into(),
            name: t.name.into(),
            ts_unix_us: t.ts_unix_us,
            dur_us,
            error,
            retained: String::default(),
            dropped_spans: t.dropped,
            spans,
        })
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.armed {
            ACTIVE.with(|c| c.set(false));
            CURRENT.with(|c| *c.borrow_mut() = None);
        }
    }
}

/// Converts one in-flight span to its frozen record, resolving the
/// open-duration sentinel against the whole-trace duration.
fn freeze_span(s: ActiveSpan, trace_dur_us: u64) -> SpanRecord {
    use std::fmt::Write as _;
    let mut tags = Vec::with_capacity(s.tags.len().min(MAX_TAGS_PER_SPAN));
    for (k, v) in s.tags {
        let mut val = String::default();
        let _ = write!(val, "{v}");
        tags.push((k.into(), val));
    }
    SpanRecord {
        id: 0, // assigned positionally by finish()
        parent: s.parent,
        name: s.name.into(),
        start_us: s.start_us,
        dur_us: if s.dur_us == DUR_OPEN {
            trace_dur_us.saturating_sub(s.start_us)
        } else {
            s.dur_us
        },
        tags,
    }
}

/// Starts collecting a span tree for a request on this thread and
/// opens its root span at `start`, the moment the request arrived: the
/// root covers whatever ran before this call (a server decodes the
/// request first to learn its name), and its duration, read once by
/// [`TraceGuard::finish`], is the request's latency. Returns a
/// disarmed guard (and leaves the existing trace untouched) when one
/// is already active.
pub fn begin_request(trace_id: &str, name: &'static str, start: Instant) -> TraceGuard {
    if trace_active() {
        return TraceGuard::disarmed();
    }
    let mut spans = Vec::with_capacity(SPAN_PREALLOC);
    spans.push(ActiveSpan {
        name,
        parent: 0,
        start_us: 0,
        dur_us: DUR_OPEN,
        tags: Vec::default(),
    });
    let mut stack = Vec::with_capacity(SPAN_PREALLOC);
    stack.push(1u32);
    let trace = ActiveTrace {
        trace_id: Arc::from(trace_id),
        name,
        ts_unix_us: unix_micros().saturating_sub(start.elapsed().as_micros() as u64),
        t0: start,
        spans,
        stack,
        error: false,
        dropped: 0,
    };
    CURRENT.with(|c| *c.borrow_mut() = Some(trace));
    ACTIVE.with(|c| c.set(true));
    TraceGuard { armed: true }
}

/// Opens a child span under the innermost open span. `now` is the
/// caller's already-taken clock reading (stage timers read the clock
/// exactly once and share it with the span). Returns the span id, or
/// 0 when no trace is active or the per-trace span cap is hit.
pub fn open_span(name: &'static str, now: Instant) -> u32 {
    if !trace_active() {
        return 0;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(t) = cur.as_mut() else { return 0 };
        if t.spans.len() >= MAX_SPANS_PER_TRACE {
            t.dropped = t.dropped.saturating_add(1);
            return 0;
        }
        let parent = t.stack.last().copied().unwrap_or(1);
        let start_us = now.saturating_duration_since(t.t0).as_micros() as u64;
        t.spans.push(ActiveSpan {
            name,
            parent,
            start_us,
            dur_us: DUR_OPEN,
            tags: Vec::default(),
        });
        let id = t.spans.len() as u32;
        t.stack.push(id);
        id
    })
}

/// Closes span `id` with its measured duration. Id 0 (from a capped or
/// inactive [`open_span`]) is a no-op. Tolerates misnested closes:
/// anything the span left open above itself on the stack is closed at
/// trace end rather than corrupting the tree.
pub fn close_span(id: u32, elapsed: Duration) {
    if id == 0 {
        return;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(t) = cur.as_mut() else { return };
        if let Some(pos) = t.stack.iter().rposition(|&s| s == id) {
            if pos > 0 {
                t.stack.truncate(pos);
            }
        }
        if let Some(s) = t.spans.get_mut(id as usize - 1) {
            s.dur_us = elapsed.as_micros() as u64;
        }
    });
}

/// Attaches a key/value annotation to the innermost open span (the
/// root, between stages). Silently capped at [`MAX_TAGS_PER_SPAN`].
pub fn annotate(key: &'static str, value: TagValue) {
    if !trace_active() {
        return;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(t) = cur.as_mut() else { return };
        let Some(&top) = t.stack.last() else { return };
        if let Some(s) = t.spans.get_mut(top as usize - 1) {
            if s.tags.len() < MAX_TAGS_PER_SPAN {
                s.tags.push((key, value));
            }
        }
    });
}

/// The (trace id, innermost open span id) address of the current
/// position in the tree — the link a singleflight leader publishes so
/// follower traces can reference its extraction span.
pub fn current_span_link() -> Option<(Arc<str>, u32)> {
    if !trace_active() {
        return None;
    }
    CURRENT.with(|c| {
        let cur = c.borrow();
        let t = cur.as_ref()?;
        let top = t.stack.last().copied()?;
        Some((Arc::clone(&t.trace_id), top))
    })
}

/// Flags the current trace as an error, independent of how the handler
/// reports its result (the flight recorder always retains error
/// traces).
pub fn mark_error() {
    if !trace_active() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.error = true;
        }
    });
}

/// One frozen span of a completed request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// 1-based span id; the root span is id 1.
    pub id: u32,
    /// Parent span id; 0 for the root.
    pub parent: u32,
    /// Span name (the stage name, or the request kind for the root).
    pub name: String,
    /// Microseconds from the trace start to the span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Annotations, in attach order.
    pub tags: Vec<(String, String)>,
}

/// A completed request trace: the root metadata plus the span tree,
/// in id order (so `spans[i].id == i + 1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// The request's wire trace id.
    pub trace_id: String,
    /// Root span name (the request kind).
    pub name: String,
    /// Trace start, microseconds since the Unix epoch.
    pub ts_unix_us: u64,
    /// Whole-request duration in microseconds.
    pub dur_us: u64,
    /// True when the request ended in an error reply (or was flagged
    /// via [`mark_error`]).
    pub error: bool,
    /// Why the flight recorder kept this trace: `"slow"`, `"error"`,
    /// `"sampled"` — empty until it passes through the recorder.
    pub retained: String,
    /// Spans dropped past [`MAX_SPANS_PER_TRACE`].
    pub dropped_spans: u32,
    /// The span tree, in id order.
    pub spans: Vec<SpanRecord>,
}

impl RequestTrace {
    /// True when the recorder retained this trace for being slow or
    /// an error (vs a probabilistic sample).
    pub fn is_interesting(&self) -> bool {
        self.error || self.retained == "slow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish_ids(t: &RequestTrace) -> Vec<u32> {
        t.spans.iter().map(|s| s.id).collect()
    }

    #[test]
    fn no_trace_means_no_ops() {
        assert!(!trace_active());
        assert_eq!(open_span("x", Instant::now()), 0);
        close_span(0, Duration::ZERO);
        annotate("k", TagValue::U64(1));
        assert!(current_span_link().is_none());
        mark_error();
        assert!(!trace_active());
    }

    #[test]
    fn span_tree_nests_and_freezes() {
        let guard = begin_request("0123456789abcdef", "SearchMesh", Instant::now());
        assert!(trace_active());

        let extract = open_span("query_extract", Instant::now());
        assert_eq!(extract, 2);
        let norm = open_span("normalize", Instant::now());
        assert_eq!(norm, 3);
        close_span(norm, Duration::from_micros(40));
        let vox = open_span("voxelize", Instant::now());
        annotate("voxels", TagValue::U64(4096));
        close_span(vox, Duration::from_micros(700));
        close_span(extract, Duration::from_micros(900));
        let search = open_span("index_search", Instant::now());
        close_span(search, Duration::from_micros(12));

        let t = guard.finish(false).expect("armed guard yields a trace");
        assert!(!trace_active());
        assert_eq!(t.name, "SearchMesh");
        assert_eq!(t.trace_id, "0123456789abcdef");
        assert!(!t.error);
        assert_eq!(t.dropped_spans, 0);
        assert_eq!(t.spans.len(), 5);
        // Root, then children in open order.
        assert_eq!(t.spans[0].parent, 0);
        assert_eq!(t.spans[0].name, "SearchMesh");
        assert_eq!(t.spans[1].name, "query_extract");
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[2].name, "normalize");
        assert_eq!(t.spans[2].parent, 2);
        assert_eq!(t.spans[3].name, "voxelize");
        assert_eq!(t.spans[3].parent, 2);
        assert_eq!(
            t.spans[3].tags,
            vec![("voxels".to_string(), "4096".to_string())]
        );
        assert_eq!(t.spans[4].name, "index_search");
        assert_eq!(t.spans[4].parent, 1);
        assert_eq!(t.spans[3].dur_us, 700);
    }

    #[test]
    fn root_span_starts_at_the_given_instant() {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let t = begin_request("id", "req", start).finish(false).unwrap();
        // The root covers the time before `begin_request` ran.
        assert!(t.dur_us >= 2000, "{}", t.dur_us);
        assert_eq!(t.spans[0].dur_us, t.dur_us);
    }

    #[test]
    fn open_spans_close_at_trace_end() {
        let guard = begin_request("id", "req", Instant::now());
        let s = open_span("never_closed", Instant::now());
        assert_eq!(s, 2);
        let t = guard.finish(false).unwrap();
        // Root and the orphan both span to the trace end.
        assert_eq!(t.spans[0].dur_us, t.dur_us);
        assert!(t.spans[1].dur_us <= t.dur_us);
        assert_ne!(t.spans[1].dur_us, DUR_OPEN);
    }

    #[test]
    fn nested_begin_is_disarmed() {
        let outer = begin_request("outer", "a", Instant::now());
        let inner = begin_request("inner", "b", Instant::now());
        assert!(inner.finish(false).is_none());
        // The outer trace survived the nested attempt.
        assert!(trace_active());
        let t = outer.finish(false).unwrap();
        assert_eq!(t.trace_id, "outer");
    }

    #[test]
    fn drop_without_finish_clears_state() {
        {
            let _guard = begin_request("id", "req", Instant::now());
            assert!(trace_active());
        }
        assert!(!trace_active());
        assert!(current_span_link().is_none());
    }

    #[test]
    fn span_cap_counts_drops() {
        let guard = begin_request("id", "req", Instant::now());
        let mut opened = 0;
        for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
            let id = open_span("s", Instant::now());
            if id != 0 {
                opened += 1;
                close_span(id, Duration::ZERO);
            }
        }
        let t = guard.finish(false).unwrap();
        assert_eq!(opened, MAX_SPANS_PER_TRACE - 1); // root takes slot 1
        assert_eq!(t.dropped_spans, 11);
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
    }

    #[test]
    fn error_flag_propagates_both_ways() {
        let guard = begin_request("id", "req", Instant::now());
        mark_error();
        let t = guard.finish(false).unwrap();
        assert!(t.error);

        let guard = begin_request("id2", "req", Instant::now());
        let t = guard.finish(true).unwrap();
        assert!(t.error);
    }

    #[test]
    fn span_link_addresses_innermost_span() {
        let guard = begin_request("leader-trace", "req", Instant::now());
        let (tid, span) = current_span_link().unwrap();
        assert_eq!(&*tid, "leader-trace");
        assert_eq!(span, 1);
        let s = open_span("query_extract", Instant::now());
        let (_, span) = current_span_link().unwrap();
        assert_eq!(span, s);
        close_span(s, Duration::ZERO);
        let (_, span) = current_span_link().unwrap();
        assert_eq!(span, 1);
        drop(guard);
    }

    #[test]
    fn ids_are_positional_after_finish() {
        let guard = begin_request("id", "req", Instant::now());
        for _ in 0..3 {
            let s = open_span("s", Instant::now());
            close_span(s, Duration::ZERO);
        }
        let t = guard.finish(false).unwrap();
        // finish() assigns ids positionally: spans[i].id == i + 1.
        let ids = finish_ids(&t);
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn trace_roundtrips_through_serde() {
        let guard = begin_request("abcd", "SearchMesh", Instant::now());
        let s = open_span("index_search", Instant::now());
        annotate("cache", TagValue::Str("hit"));
        close_span(s, Duration::from_micros(5));
        let t = guard.finish(false).unwrap();
        let v = serde::Serialize::to_value(&t);
        let back: RequestTrace = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, t);
    }
}
