//! # tdess-obs — the 3DESS observability tier
//!
//! Self-contained except for the workspace's vendored `serde` shim
//! (used only for the wire-portable trace payload types), providing,
//! for every other tier:
//!
//! * **tracing** ([`trace`]) — leveled, env-filtered (`TDESS_LOG`)
//!   structured events as JSON lines to a redirectable sink, with
//!   thread-local trace-id propagation ([`with_trace_id`] /
//!   [`gen_trace_id`]) so one request can be followed from the client
//!   through the worker pool to the index;
//! * **histograms** ([`hist`]) — log-linear (HDR-style) concurrent
//!   latency [`Histogram`]s with mergeable [`HistogramSnapshot`]s,
//!   exact count/min/max/sum, and p50/p90/p99 quantiles bounded to
//!   ≤6.25% relative error;
//! * **counters** ([`counter`]) — lock-free event [`Counter`]s;
//! * **stage registry** ([`stage`]) — static per-[`Stage`] histograms
//!   fed by drop-guard [`StageTimer`]s across the extraction pipeline
//!   (normalize → voxelize → skeletonize → graph → eigen) and query
//!   path (extract, index search, similarity combine, re-rank);
//! * **request spans** ([`span`]) — hierarchical per-request span
//!   trees ([`begin_request`] / [`RequestTrace`]) fed by the same
//!   stage timers, with cross-request links and annotations;
//! * **flight recorder** ([`recorder`]) — a fixed-capacity ring of
//!   completed request traces under tail-based sampling (always keep
//!   slow and error traces, sample the rest);
//! * **export** ([`export`]) — a Chrome trace-event JSON serializer
//!   ([`chrome_trace_json`]) whose output loads in Perfetto and
//!   `chrome://tracing`;
//! * **exposition** ([`prom`]) — a [`PromText`] builder for the
//!   Prometheus text format served by `tdess serve --metrics-addr`.
//!
//! See DESIGN.md §"OBS tier" for the span model, bucket scheme,
//! tail-sampling policy, and trace-id propagation rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod export;
pub mod hist;
pub mod prom;
pub mod recorder;
pub mod span;
pub mod stage;
pub mod trace;

pub use counter::Counter;
pub use export::chrome_trace_json;
pub use hist::{Histogram, HistogramSnapshot};
pub use prom::PromText;
pub use recorder::{FlightRecorder, RecorderConfig, RecorderStats};
pub use span::{
    annotate, begin_request, current_span_link, mark_error, trace_active, RequestTrace, SpanRecord,
    TagValue, TraceGuard,
};
pub use stage::{stage_histogram, stage_snapshots, Stage, StageTimer};
pub use trace::{
    current_trace_id, emit, enabled, gen_trace_id, level, set_level, set_sink, sink_to_stderr,
    with_trace_id, Capture, Level,
};

/// Emits a leveled event with a formatted message and no extra fields.
///
/// ```
/// tdess_obs::event!(Info, "tdess.serve", "serving {} shapes", 113);
/// ```
///
/// The format arguments are only evaluated when the level passes the
/// active `TDESS_LOG` filter.
#[macro_export]
macro_rules! event {
    ($lvl:ident, $target:expr, $($fmt:tt)+) => {
        if $crate::enabled($crate::Level::$lvl) {
            $crate::emit($crate::Level::$lvl, $target, &::std::format!($($fmt)+), &[]);
        }
    };
}

/// Emits a leveled event with structured key/value fields.
///
/// ```
/// tdess_obs::event_kv!(Warn, "tdess.net", "slow request", {
///     duration_ms: 1250,
///     kind: "SearchMesh",
/// });
/// ```
///
/// Field values are rendered with `Display` and only evaluated when
/// the level passes the filter.
#[macro_export]
macro_rules! event_kv {
    ($lvl:ident, $target:expr, $msg:expr, { $($k:ident : $v:expr),+ $(,)? }) => {
        if $crate::enabled($crate::Level::$lvl) {
            $crate::emit(
                $crate::Level::$lvl,
                $target,
                $msg,
                &[$((::core::stringify!($k), ::std::format!("{}", $v))),+],
            );
        }
    };
}
