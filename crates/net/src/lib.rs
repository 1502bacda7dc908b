//! # tdess-net — the 3DESS network tier
//!
//! Exposes a [`tdess_core::SearchServer`] over TCP:
//!
//! * **protocol** ([`proto`]) — length-prefixed frames with
//!   little-endian binary payloads (f64 values as raw bits) after a
//!   version-checked JSON handshake, typed
//!   [`proto::Request`]/[`proto::Response`] enums, and decode errors
//!   that are typed values, never panics; the payload layouts live in
//!   one private `codec` module over [`tdess_core::le`];
//! * **server** ([`server`]) — [`NetServer`], a bounded thread-pool
//!   front end with explicit backpressure (`Busy` replies when the
//!   accept queue is full), per-connection timeouts, transport
//!   counters, one latency histogram per request kind timed by the
//!   request's root span, and a graceful shutdown that never drops an
//!   in-flight request;
//! * **client** ([`client`]) — [`NetClient`], a blocking typed client
//!   with connect/request timeouts and reconnect-on-broken-pipe for
//!   idempotent requests;
//! * **metrics** ([`metrics`]) — [`MetricsServer`], a minimal HTTP
//!   endpoint serving the server's Prometheus text exposition
//!   (`GET /metrics`).
//!
//! Requests travel in a [`proto::RequestEnvelope`] carrying a client
//! trace id; the server dispatches under that id so its `tdess-obs`
//! structured events correlate with the originating call.
//!
//! See DESIGN.md §"NET tier" for the frame layout, handshake, and
//! timeout/backpressure defaults, and §"OBS tier" for tracing and
//! exposition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod codec;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{NetClient, NetClientConfig};
pub use metrics::{MetricsRenderer, MetricsRoute, MetricsServer};
pub use proto::{
    ErrorKind, ErrorReply, Hello, HelloReply, HitsReport, InfoReport, LatencyStats, NamedHit,
    Request, RequestEnvelope, RequestStats, Response, SpaceInfo, StageStats, StatsReport,
    TracesReport, TransportStats, WireError, DEFAULT_MAX_FRAME_LEN, MAGIC, MAX_TRACE_ID_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{NetServer, NetServerConfig, TransportCounters};
