//! The 3DESS wire protocol: length-prefixed frames carrying
//! little-endian binary [`Request`]/[`Response`] payloads, preceded by
//! a version-checked JSON [`Hello`] handshake.
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 LE length  |  length bytes of payload  |
//! +----------------+---------------------------+
//! ```
//!
//! A frame whose declared length exceeds the agreed maximum
//! ([`DEFAULT_MAX_FRAME_LEN`] unless configured otherwise) is answered
//! with a [`ErrorKind::FrameTooLarge`] error and drained, not trusted:
//! decode errors are *typed* ([`WireError`]) and never panic on
//! malformed or truncated input.
//!
//! ## Handshake
//!
//! The first frame a client sends is a [`Hello`] (magic string +
//! protocol version) as JSON, `{"magic":"tdess","version":2}`.
//! Everything the server sends before the handshake completes is a
//! [`HelloReply`] in protocol v1's externally tagged JSON:
//! `{"HelloAck":{"version":2}}` on a match, otherwise
//! `{"Error":{"kind":...,"message":...}}` — a `VersionMismatch` naming
//! both versions, `Busy`, `Shutdown`, or a handshake `FrameTooLarge` or
//! `Malformed`. So a peer of either version reads a typed error.
//!
//! ## Payloads (protocol v2)
//!
//! After the handshake every client frame is a [`RequestEnvelope`] and
//! every server frame a [`Response`], in a fixed little-endian binary
//! layout: a tag byte, then the variant's fields in order.
//!
//! ```text
//! count          u32: the length of a vector, list or string
//! id, usize      u64 (ids; top-k, plan sizes and `last`)
//! f64            8 bytes, f64::to_le_bytes: the value's exact bits
//! string         count + UTF-8 bytes
//! bool, Option   1 byte, 0 or 1 (an Option's value follows a 1)
//! FeatureKind    1 byte: its index in FeatureKind::ALL
//! ErrorKind      1 byte: its declaration index
//!
//! envelope       Option<string> trace id (at most MAX_TRACE_ID_BYTES),
//!                then a request: tag = Request::kind(), then fields
//!   0 SearchFeatures  7 × (count + f64s) in FeatureKind::ALL order, query
//!   1 SearchMesh      mesh, query
//!   2 MultiStep       mesh, plan
//!   3 Insert          name string, mesh
//!   4 Remove          id
//!   5 Info, 6 Stats, 8 Ping   no fields
//!   7 Traces          last, slow bool
//! query          kind, weights Option<count + f64s>,
//!                mode tag: 0 TopK + usize | 1 Threshold + f64
//! mesh           count + (x, y, z) f64 per vertex,
//!                count + 3 × u32 per triangle
//! plan           count + kind per step, candidates, presented
//!
//! response       tag, then fields
//!   0 Hits        count + (id, name string, distance, similarity) per hit
//!   1 Inserted    id
//!   2 Removed     id
//!   3 Info, 4 Stats, 5 Traces   one string: the report's serde JSON
//!   6 Pong        no fields
//!   7 Error       ErrorKind, message string
//! ```
//!
//! f64 values travel as raw bits, so every answer, NaN payloads
//! included, arrives bit for bit. The three reports ride as their
//! serde JSON (the same text `--json` prints): they are rare, nested,
//! and owned by other crates, so the codec does not copy their layouts.
//! A decoder checks every count against the bytes actually present
//! before it allocates, and rejects unknown tags, out-of-range kinds,
//! invalid UTF-8, short payloads and trailing bytes as
//! [`WireError::Malformed`]. The private `codec` module holds every
//! layout; it reads and writes the fields through
//! [`tdess_core::le`], the codec the `TDSS` snapshot uses too.

use std::io::{IoSlice, Read, Write};

use serde::{Deserialize, Serialize};
use tdess_core::MultiStepPlan;
use tdess_core::{CacheStatsSnapshot, Query, SearchHit, ServerMetrics, ShapeDatabase, ShapeId};
use tdess_features::{FeatureKind, FeatureSet};
use tdess_geom::TriMesh;
use tdess_obs::{Histogram, HistogramSnapshot, RequestTrace};

/// Version of the wire protocol spoken by this build. Bumped on any
/// incompatible frame or payload change; the handshake rejects peers
/// speaking a different version.
pub const PROTOCOL_VERSION: u32 = 2;

/// Magic string carried in the handshake so a 3DESS endpoint can
/// reject arbitrary TCP traffic with a typed error instead of a
/// confusing decode failure.
pub const MAGIC: &str = "tdess";

/// Default hard cap on a frame's payload length (32 MiB — comfortably
/// above any corpus mesh, far below a memory-exhaustion attack).
pub const DEFAULT_MAX_FRAME_LEN: usize = 32 * 1024 * 1024;

/// Longest trace id a request may carry, in bytes. Traces keep their
/// id, and the flight recorder always retains error traces, so an
/// uncapped id would let a client pin up to a frame's worth of memory
/// per retained trace. [`tdess_obs::gen_trace_id`] makes 16 bytes and a
/// W3C `traceparent` is 55.
pub const MAX_TRACE_ID_BYTES: usize = 64;

/// The handshake frame: first thing on the wire from a client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// Must equal [`MAGIC`].
    pub magic: String,
    /// Must equal the server's [`PROTOCOL_VERSION`].
    pub version: u32,
}

impl Hello {
    /// The handshake this build sends.
    pub fn current() -> Hello {
        Hello {
            // hotpath: allow(hot-alloc) — version string built once per handshake
            magic: MAGIC.to_string(),
            version: PROTOCOL_VERSION,
        }
    }

    /// Whether this hello is acceptable to this build.
    pub fn compatible(&self) -> bool {
        self.magic == MAGIC && self.version == PROTOCOL_VERSION
    }
}

/// A client request. One frame each; the server answers every request
/// with exactly one [`Response`] frame on the same connection.
#[derive(Debug, Clone)]
pub enum Request {
    /// One-shot search with already-extracted query features.
    SearchFeatures {
        /// The query's feature vectors (extracted with settings
        /// compatible with the server's database).
        features: FeatureSet,
        /// Feature space, weights, and selection mode.
        query: Query,
    },
    /// One-shot query-by-example: the server extracts features.
    SearchMesh {
        /// The query mesh.
        mesh: TriMesh,
        /// Feature space, weights, and selection mode.
        query: Query,
    },
    /// Multi-step search (candidate retrieval + re-ranking).
    MultiStep {
        /// The query mesh.
        mesh: TriMesh,
        /// Step sequence and candidate/presented counts.
        plan: MultiStepPlan,
    },
    /// Insert a shape into the served database (in-memory snapshot;
    /// the server's on-disk file is not rewritten per insert).
    Insert {
        /// Human-readable shape name.
        name: String,
        /// The shape's mesh.
        mesh: TriMesh,
    },
    /// Remove a shape by id.
    Remove {
        /// Database id to remove.
        id: ShapeId,
    },
    /// Database summary (shape count, extractor settings, per-space
    /// dimensions and diameters).
    Info,
    /// Query + transport metrics.
    Stats,
    /// Recent request traces from the server's flight recorder.
    Traces {
        /// Return at most this many traces, newest last (0 = all
        /// currently retained).
        last: usize,
        /// Only traces the tail sampler marked interesting (slow or
        /// error), dropping the probabilistic baseline sample.
        slow: bool,
    },
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Every variant's name, in declaration order: the label of a
    /// request kind in traces, events and per-kind latency series.
    pub const KINDS: [&'static str; 9] = [
        "SearchFeatures",
        "SearchMesh",
        "MultiStep",
        "Insert",
        "Remove",
        "Info",
        "Stats",
        "Traces",
        "Ping",
    ];

    /// This request's index into [`Request::KINDS`], which is also
    /// its tag byte on the wire.
    pub fn kind(&self) -> usize {
        match self {
            Request::SearchFeatures { .. } => 0,
            Request::SearchMesh { .. } => 1,
            Request::MultiStep { .. } => 2,
            Request::Insert { .. } => 3,
            Request::Remove { .. } => 4,
            Request::Info => 5,
            Request::Stats => 6,
            Request::Traces { .. } => 7,
            Request::Ping => 8,
        }
    }

    /// Whether retrying this request after a connection failure is
    /// safe (it does not mutate the database).
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Insert { .. } | Request::Remove { .. })
    }
}

/// The request envelope: a [`Request`] plus the observability metadata
/// that travels with it. [`crate::NetClient`] generates a fresh
/// `trace_id` per request; the server runs the dispatch under it so
/// every event the request causes — including slow-query warnings —
/// carries the id the client knows.
#[derive(Debug, Clone)]
pub struct RequestEnvelope {
    /// Client-generated correlation id (16 hex digits by convention;
    /// any UTF-8 of at most [`MAX_TRACE_ID_BYTES`] is propagated
    /// opaquely).
    pub trace_id: Option<String>,
    /// The request itself.
    pub request: Request,
}

/// Decodes a request payload: a v2 [`RequestEnvelope`]. Returns the
/// trace id (if any) with the request.
pub fn decode_request(payload: &[u8]) -> Result<(Option<String>, Request), WireError> {
    let env: RequestEnvelope = decode(payload)?;
    Ok((env.trace_id, env.request))
}

/// One search result, with the shape's name resolved server-side so
/// clients need no follow-up lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedHit {
    /// Database id of the matching shape.
    pub id: ShapeId,
    /// The shape's name in the served database.
    pub name: String,
    /// Weighted Euclidean distance to the query (Eq. 4.3).
    pub distance: f64,
    /// Similarity (Eq. 4.4).
    pub similarity: f64,
}

/// Payload of a search response: ranked hits with names resolved.
///
/// Also the `--json` output of the local `tdess query`/`multistep`
/// CLI verbs — one source of truth for machine-readable results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitsReport {
    /// Ranked results, most similar first.
    pub hits: Vec<NamedHit>,
}

impl HitsReport {
    /// Resolves hit names against `db` (the snapshot the search ran
    /// on). A hit whose shape vanished concurrently gets an empty
    /// name rather than an error.
    pub fn new(db: &ShapeDatabase, hits: &[SearchHit]) -> HitsReport {
        HitsReport {
            hits: hits
                .iter()
                .map(|h| NamedHit {
                    id: h.id,
                    // hotpath: allow(hot-alloc) — the reply owns a copy of each hit's name
                    name: db.get(h.id).map(|s| s.name.clone()).unwrap_or_default(),
                    distance: h.distance,
                    similarity: h.similarity,
                })
                .collect(),
        }
    }
}

/// Per-feature-space summary inside an [`InfoReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceInfo {
    /// The feature space.
    pub kind: FeatureKind,
    /// Its vector dimension.
    pub dim: usize,
    /// Its similarity-normalization diameter.
    pub dmax: f64,
}

/// Payload of an Info response; also the `--json` output of the local
/// `tdess info` verb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfoReport {
    /// Number of stored shapes.
    pub shapes: usize,
    /// The extractor's voxel resolution.
    pub voxel_resolution: usize,
    /// The extractor's eigenvalue-spectrum dimension.
    pub spectrum_dim: usize,
    /// One entry per feature space.
    pub spaces: Vec<SpaceInfo>,
}

impl InfoReport {
    /// Builds the report for a database snapshot.
    pub fn for_db(db: &ShapeDatabase) -> InfoReport {
        InfoReport {
            shapes: db.len(),
            voxel_resolution: db.extractor().voxel_resolution,
            spectrum_dim: db.extractor().spectrum_dim,
            spaces: FeatureKind::ALL
                .into_iter()
                .map(|kind| SpaceInfo {
                    kind,
                    dim: db.extractor().dim(kind),
                    dmax: db.dmax(kind),
                })
                // hotpath: allow(hot-alloc) — the info reply assembles the returned summary
                .collect(),
        }
    }
}

/// Transport-level counters maintained by the network server,
/// reported alongside the query metrics in a [`StatsReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Connections accepted into the worker pool.
    pub connections_accepted: u64,
    /// Connections turned away with a `Busy` (queue full) or
    /// `Shutdown` reply.
    pub connections_rejected: u64,
    /// Frames whose payload decoded into a valid handshake/request.
    pub frames_decoded: u64,
    /// Frames rejected as malformed, truncated, or over-limit.
    pub decode_errors: u64,
    /// Decoded requests answered with a response frame. A frame that
    /// fails to decode counts only as a decode error.
    pub requests_served: u64,
}

/// Latency summary (seconds) of one histogram: exact
/// count/min/mean/max plus p50/p90/p99 quantiles (≤6.25% relative
/// error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples recorded.
    pub count: u64,
    /// Fastest sample, seconds.
    pub min_s: f64,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Slowest sample, seconds.
    pub max_s: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 90th-percentile latency, seconds.
    pub p90_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
}

impl LatencyStats {
    /// Summarizes a histogram snapshot; `None` when it holds no
    /// samples, so "no data" is never confused with a genuine 0s
    /// minimum by JSON consumers.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Option<LatencyStats> {
        if snap.is_empty() {
            return None;
        }
        Some(LatencyStats {
            count: snap.count(),
            min_s: snap.min_seconds(),
            mean_s: snap.mean_seconds(),
            max_s: snap.max_seconds(),
            p50_s: snap.quantile_seconds(0.5),
            p90_s: snap.quantile_seconds(0.9),
            p99_s: snap.quantile_seconds(0.99),
        })
    }
}

/// One row per labelled series that holds samples, in series order.
fn summaries<'a, T>(
    series: impl Iterator<Item = (&'a str, HistogramSnapshot)>,
    row: impl Fn(String, LatencyStats) -> T,
) -> Vec<T> {
    series
        .filter_map(|(label, snap)| {
            // hotpath: allow(hot-alloc) — the stats reply assembles the returned summary
            LatencyStats::from_snapshot(&snap).map(|latency| row(label.to_string(), latency))
        })
        .collect()
}

/// Latency summary of one instrumented pipeline/query stage, keyed by
/// the stage's stable snake_case name (`tdess_obs::Stage::name`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Stage name (e.g. `voxelize`, `index_search`).
    pub stage: String,
    /// The stage's latency summary with quantiles.
    pub latency: LatencyStats,
}

impl StageStats {
    /// Builds the per-stage summaries from the process-wide stage
    /// histograms, skipping stages that never ran.
    pub fn collect() -> Vec<StageStats> {
        let stages = tdess_obs::stage_snapshots().into_iter();
        summaries(
            stages.map(|(s, snap)| (s.name(), snap)),
            |stage, latency| StageStats { stage, latency },
        )
    }
}

/// Latency summary of one request kind, measured by the network
/// server from the frame's arrival to the reply's write — the
/// request's root span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Request kind, one of [`Request::KINDS`].
    pub request: String,
    /// The kind's latency summary with quantiles.
    pub latency: LatencyStats,
}

impl RequestStats {
    /// Builds the per-kind summaries from histograms indexed like
    /// [`Request::KINDS`], skipping kinds that were never served.
    pub fn collect(latency: &[Histogram]) -> Vec<RequestStats> {
        let kinds = Request::KINDS.into_iter().zip(latency);
        summaries(kinds.map(|(k, h)| (k, h.snapshot())), |request, latency| {
            RequestStats { request, latency }
        })
    }
}

/// Payload of a Stats response; also the `--json` output of the
/// remote `tdess remote <addr> stats` verb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Number of stored shapes at snapshot time.
    pub shapes: usize,
    /// Query metrics of the wrapped [`tdess_core::SearchServer`].
    pub server: ServerMetrics,
    /// Transport counters of the network front end.
    pub transport: TransportStats,
    /// Per-stage latency summaries, one row for each stage timed so far.
    pub stages: Vec<StageStats>,
    /// Per-request-kind latency summaries, one row for each kind served
    /// so far.
    pub requests: Vec<RequestStats>,
    /// Extraction-cache counters; `None` (JSON `null`) from a server
    /// running without a cache.
    pub cache: Option<CacheStatsSnapshot>,
}

/// Payload of a Traces response: completed request traces retained by
/// the server's flight recorder, oldest first. Also the `--format
/// jsonl` source of the `tdess remote <addr> trace` verb.
///
/// Traces ride the wire as plain [`RequestTrace`] values (the `Arc` is
/// a server-side sharing detail that serializes transparently), so the
/// report decodes against any build carrying the span types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracesReport {
    /// The slow-over-this-threshold retention cutoff, microseconds —
    /// lets clients label "slow" consistently with the server.
    pub slow_threshold_us: u64,
    /// Retained traces, oldest first.
    pub traces: Vec<std::sync::Arc<RequestTrace>>,
}

/// Machine-readable category of a server-reported error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Handshake magic/version did not match.
    VersionMismatch,
    /// A frame exceeded the server's maximum payload length.
    FrameTooLarge,
    /// A frame's payload was not a valid request.
    Malformed,
    /// The accept queue was full; retry later.
    Busy,
    /// The server is shutting down; no new requests are accepted.
    Shutdown,
    /// Feature extraction failed for the submitted mesh.
    Extraction,
    /// The referenced shape id does not exist.
    UnknownShape,
    /// Any other server-side failure.
    Internal,
}

/// A typed error reply: category plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorReply {
    /// Convenience constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// The server's answer to a [`Hello`], and every frame it sends before
/// the handshake completes. Encoded as protocol v1's externally tagged
/// JSON ([`encode_json`]), so a peer of any version reads it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HelloReply {
    /// Handshake accepted; carries the server's protocol version.
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// The connection is refused: version mismatch, busy, shutting
    /// down, or a bad handshake frame.
    Error(ErrorReply),
}

/// A server response. Exactly one per request.
// `Stats` dominates the enum's size now that reports carry quantiles
// and per-stage timings, but a `Response` only ever lives for the
// instant between dispatch and frame encode (or decode and match), so
// indirection would buy nothing and cost an allocation per response.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ranked search results.
    Hits(HitsReport),
    /// A shape was inserted.
    Inserted {
        /// The id assigned by the server.
        id: ShapeId,
    },
    /// A shape was removed.
    Removed {
        /// The id that was removed.
        id: ShapeId,
    },
    /// Database summary.
    Info(InfoReport),
    /// Query + transport metrics.
    Stats(StatsReport),
    /// Flight-recorder traces.
    Traces(TracesReport),
    /// Liveness reply.
    Pong,
    /// The request failed; the connection stays usable.
    Error(ErrorReply),
}

/// Errors crossing the wire layer — every decode failure is typed;
/// nothing in this module panics on hostile input.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level I/O failure (includes read/write timeouts).
    Io(std::io::Error),
    /// The peer closed the connection mid-frame.
    Truncated {
        /// Bytes actually received.
        got: usize,
        /// Bytes the frame header promised.
        want: usize,
    },
    /// A frame's declared payload length exceeds the agreed maximum.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The payload was not a valid encoding of the expected type.
    Malformed(String),
    /// The handshake failed (bad magic, version, or unexpected reply).
    Handshake(String),
    /// The peer sent a response of an unexpected type.
    Protocol(String),
    /// The server answered with a typed error reply.
    Remote(ErrorReply),
    /// The connection closed cleanly where a frame was required.
    Disconnected,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "network I/O error: {e}"),
            WireError::Truncated { got, want } => {
                write!(f, "connection closed mid-frame ({got}/{want} bytes)")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            WireError::Remote(reply) => write!(f, "server error — {reply}"),
            WireError::Disconnected => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether this failure means the underlying connection is gone
    /// (as opposed to a per-request error on a healthy connection) —
    /// the condition under which [`crate::NetClient`] reconnects.
    pub fn is_disconnect(&self) -> bool {
        match self {
            WireError::Disconnected | WireError::Truncated { .. } => true,
            WireError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::NotConnected
            ),
            _ => false,
        }
    }
}

/// A message with a v2 binary layout: the payload of one frame after
/// the handshake ([`RequestEnvelope`] and [`Response`]).
pub trait Payload: Sized {
    /// Encodes this value as a frame payload.
    fn to_payload(&self) -> Result<Vec<u8>, WireError>;
    /// Decodes a whole frame payload; any decode failure, trailing
    /// bytes included, is [`WireError::Malformed`].
    fn from_payload(payload: &[u8]) -> Result<Self, WireError>;
}

/// Encodes a message as a frame payload.
pub fn encode<T: Payload>(value: &T) -> Result<Vec<u8>, WireError> {
    value.to_payload()
}

/// Decodes a frame payload into a message.
pub fn decode<T: Payload>(payload: &[u8]) -> Result<T, WireError> {
    T::from_payload(payload)
}

/// Serializes a handshake frame ([`Hello`], [`HelloReply`]) as JSON.
pub fn encode_json<T: Serialize>(value: &T) -> Result<Vec<u8>, WireError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        // hotpath: allow(hot-alloc) — handshake-phase frames only, once per connection
        .map_err(|e| WireError::Malformed(e.to_string()))
}

/// Deserializes a JSON handshake frame.
pub fn decode_json<T: Deserialize>(payload: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(payload)
        // hotpath: allow(hot-alloc) — handshake-phase frames only; formats on the malformed path
        .map_err(|e| WireError::Malformed(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Writes one frame: 4-byte little-endian payload length, then the
/// payload, then a flush. Header and payload go out in one vectored
/// write where the writer supports it (a `TcpStream` does), so a frame
/// costs one syscall and, on a `TCP_NODELAY` socket, one segment
/// rather than two. A partial write is resumed where it stopped.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let Ok(len) = u32::try_from(payload.len()) else {
        return Err(WireError::FrameTooLarge {
            len: payload.len(),
            max: u32::MAX as usize,
        });
    };
    let header = len.to_le_bytes();
    let mut sent = 0;
    while sent < header.len() {
        match w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)]) {
            Ok(0) => return Err(WireError::Io(std::io::ErrorKind::WriteZero.into())),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // Whatever payload the vectored write left (usually none).
    // hotpath: allow(hot-block) — frame I/O is the request itself
    w.write_all(&payload[sent - header.len()..])?;
    w.flush()?;
    Ok(())
}

/// Reads up to `buf.len()` bytes, stopping early only at EOF. Returns
/// the number of bytes actually read.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF before the
/// first header byte (the peer hung up between frames); every other
/// short read is a typed [`WireError::Truncated`]. A declared length
/// over `max_len` returns [`WireError::FrameTooLarge`] without
/// reading (or allocating) the payload.
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < header.len() {
        return Err(WireError::Truncated {
            got,
            want: header.len(),
        });
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    // hotpath: allow(hot-alloc) — the frame buffer is the received artifact
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got < len {
        return Err(WireError::Truncated { got, want: len });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur: &[u8] = &buf;
        assert_eq!(read_frame(&mut cur, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur, 1024).unwrap().is_none());
    }

    /// Records every write call; `max` caps the bytes one call takes.
    struct Recorder {
        bytes: Vec<u8>,
        calls: usize,
        max: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.max - n);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_is_one_write_and_resumes_partial_writes() {
        let payload: Vec<u8> = (0..50u8).collect();
        let mut want = 50u32.to_le_bytes().to_vec();
        want.extend_from_slice(&payload);
        let mut whole = Recorder {
            bytes: Vec::new(),
            calls: 0,
            max: usize::MAX,
        };
        write_frame(&mut whole, &payload).unwrap();
        assert_eq!(whole.bytes, want);
        assert_eq!(whole.calls, 1, "header and payload in one write");
        // A writer taking 3 bytes per call splits the header itself.
        let mut trickle = Recorder {
            bytes: Vec::new(),
            calls: 0,
            max: 3,
        };
        write_frame(&mut trickle, &payload).unwrap();
        assert_eq!(trickle.bytes, want);
        assert_eq!(trickle.calls, want.len().div_ceil(3));
    }

    #[test]
    fn truncated_header_and_payload_are_typed_errors() {
        // Partial header.
        let mut cur: &[u8] = &[1, 2];
        assert!(matches!(
            read_frame(&mut cur, 1024),
            Err(WireError::Truncated { got: 2, want: 4 })
        ));
        // Header promising more payload than exists.
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(7); // 4-byte header + 3 of 6 payload bytes
        let mut cur: &[u8] = &buf;
        assert!(matches!(
            read_frame(&mut cur, 1024),
            Err(WireError::Truncated { got: 3, want: 6 })
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let buf = u32::MAX.to_le_bytes();
        let mut cur: &[u8] = &buf;
        assert!(matches!(
            read_frame(&mut cur, 1024),
            Err(WireError::FrameTooLarge { max: 1024, .. })
        ));
    }

    #[test]
    fn request_response_roundtrip() {
        let env = RequestEnvelope {
            trace_id: None,
            request: Request::Remove { id: 42 },
        };
        let (tid, back) = decode_request(&encode(&env).unwrap()).unwrap();
        assert_eq!(tid, None);
        assert!(matches!(back, Request::Remove { id: 42 }));

        let resp = Response::Error(ErrorReply::new(ErrorKind::Busy, "queue full"));
        let payload = encode(&resp).unwrap();
        let back: Response = decode(&payload).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn garbage_payload_is_a_typed_decode_error() {
        assert!(matches!(
            decode::<Response>(b"{ not json"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_request(&[0xff, 0xfe, 0x00]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(decode_request(&[]), Err(WireError::Malformed(_))));
        // The handshake's JSON is not a v2 payload.
        assert!(matches!(
            decode::<Response>(br#"{"HelloAck":{"version":2}}"#),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn hello_compatibility() {
        assert!(Hello::current().compatible());
        let old = Hello {
            magic: MAGIC.into(),
            version: PROTOCOL_VERSION + 1,
        };
        assert!(!old.compatible());
        let alien = Hello {
            magic: "http".into(),
            version: PROTOCOL_VERSION,
        };
        assert!(!alien.compatible());
    }

    #[test]
    fn idempotence_classification() {
        assert!(Request::Ping.is_idempotent());
        assert!(Request::Info.is_idempotent());
        assert!(!Request::Remove { id: 1 }.is_idempotent());
    }

    #[test]
    fn decode_request_accepts_only_the_v2_envelope() {
        // Enveloped with a trace id.
        let env = RequestEnvelope {
            trace_id: Some("aabbccdd00112233".into()),
            request: Request::Remove { id: 7 },
        };
        let (tid, req) = decode_request(&encode(&env).unwrap()).unwrap();
        assert_eq!(tid.as_deref(), Some("aabbccdd00112233"));
        assert!(matches!(req, Request::Remove { id: 7 }));

        // Enveloped without a trace id.
        let env = RequestEnvelope {
            trace_id: None,
            request: Request::Info,
        };
        let (tid, req) = decode_request(&encode(&env).unwrap()).unwrap();
        assert_eq!(tid, None);
        assert!(matches!(req, Request::Info));

        // v1's JSON forms, bare or enveloped, are gone.
        for v1 in [
            &br#"{"Ping":null}"#[..],
            br#""Ping""#,
            br#"{"trace_id":"aabb","request":"Ping"}"#,
        ] {
            assert!(matches!(decode_request(v1), Err(WireError::Malformed(_))));
        }
    }

    #[test]
    fn hello_reply_is_v1_json() {
        let ack = encode_json(&HelloReply::HelloAck {
            version: PROTOCOL_VERSION,
        })
        .unwrap();
        assert_eq!(ack, br#"{"HelloAck":{"version":2}}"#);
        let err = HelloReply::Error(ErrorReply::new(ErrorKind::VersionMismatch, "v1"));
        let text = String::from_utf8(encode_json(&err).unwrap()).unwrap();
        assert_eq!(
            text,
            r#"{"Error":{"kind":"VersionMismatch","message":"v1"}}"#
        );
        assert_eq!(decode_json::<HelloReply>(text.as_bytes()).unwrap(), err);
        let hello = encode_json(&Hello::current()).unwrap();
        assert_eq!(hello, br#"{"magic":"tdess","version":2}"#);
    }

    #[test]
    fn traces_report_round_trips_and_tolerates_missing_fields() {
        assert!(
            Request::Traces {
                last: 0,
                slow: false
            }
            .is_idempotent(),
            "trace reads are safe to retry"
        );

        // A populated report round-trips through the wire encoding.
        let report = TracesReport {
            slow_threshold_us: 1_000_000,
            traces: vec![std::sync::Arc::new(tdess_obs::RequestTrace {
                trace_id: "aabb".into(),
                name: "SearchMesh".into(),
                ts_unix_us: 7,
                dur_us: 1_500_000,
                error: false,
                retained: "slow".into(),
                dropped_spans: 0,
                spans: Vec::new(),
            })],
        };
        let resp = Response::Traces(report);
        let back: Response = decode(&encode(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}
