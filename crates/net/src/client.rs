//! A blocking, typed client for the 3DESS network tier.
//!
//! [`NetClient`] holds one connection, performs the version-checked
//! handshake on dial, and offers typed wrappers over
//! [`NetClient::request`]. On a disconnect-class failure
//! ([`WireError::is_disconnect`]) of an idempotent request it
//! reconnects and retries exactly once — a server restart between two
//! queries is invisible to the caller, while a non-idempotent request
//! (insert/remove) whose response was lost is surfaced as the error it
//! is, never silently re-executed.
//!
//! Every request is wrapped in a [`crate::proto::RequestEnvelope`]
//! carrying a fresh `tdess-obs` trace id; the server runs the dispatch
//! under that id, so its structured events (including slow-query
//! warnings) can be correlated with the client call via
//! [`NetClient::last_trace_id`].

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use tdess_core::{MultiStepPlan, Query, ShapeId};
use tdess_features::FeatureSet;
use tdess_geom::TriMesh;

use crate::codec::encode_envelope;
use crate::proto::{
    decode, decode_json, encode_json, read_frame, write_frame, Hello, HelloReply, HitsReport,
    InfoReport, Request, Response, StatsReport, TracesReport, WireError, DEFAULT_MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};

/// Tuning knobs for a [`NetClient`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read/write timeout covering one request/response pair.
    pub request_timeout: Duration,
    /// Hard cap on an incoming frame's payload length.
    pub max_frame_len: usize,
    /// Whether to reconnect and retry once when a pooled connection
    /// turns out broken (idempotent requests only).
    pub retry_on_disconnect: bool,
}

impl Default for NetClientConfig {
    fn default() -> NetClientConfig {
        NetClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            retry_on_disconnect: true,
        }
    }
}

/// A blocking connection to a [`crate::NetServer`].
pub struct NetClient {
    addr: SocketAddr,
    cfg: NetClientConfig,
    stream: Option<TcpStream>,
    last_trace: Option<String>,
}

impl NetClient {
    /// Resolves `addr`, dials it, and completes the handshake.
    pub fn connect(addr: impl ToSocketAddrs, cfg: NetClientConfig) -> Result<NetClient, WireError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(WireError::Io)?
            .next()
            .ok_or_else(|| WireError::Handshake("address resolved to nothing".to_string()))?;
        let mut client = NetClient {
            addr,
            cfg,
            stream: None,
            last_trace: None,
        };
        client.stream = Some(client.dial()?);
        Ok(client)
    }

    /// Like [`NetClient::connect`] with the default configuration.
    pub fn connect_default(addr: impl ToSocketAddrs) -> Result<NetClient, WireError> {
        NetClient::connect(addr, NetClientConfig::default())
    }

    /// The server address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Opens a fresh connection and completes the handshake.
    fn dial(&self) -> Result<TcpStream, WireError> {
        // hotpath: allow(hot-block) — client-side dial, in the server graph only via name-level over-approximation
        let mut stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(self.cfg.request_timeout))?;
        stream.set_write_timeout(Some(self.cfg.request_timeout))?;
        let payload = encode_json(&Hello::current())?;
        write_frame(&mut stream, &payload)?;
        let Some(reply) = read_frame(&mut stream, self.cfg.max_frame_len)? else {
            return Err(WireError::Disconnected);
        };
        match decode_json::<HelloReply>(&reply)? {
            HelloReply::HelloAck { version } if version == PROTOCOL_VERSION => Ok(stream),
            // hotpath: allow(hot-alloc) — client-side error path, in the server graph only via name-level over-approximation
            HelloReply::HelloAck { version } => Err(WireError::Handshake(format!(
                "server speaks protocol v{version}, this client v{PROTOCOL_VERSION}"
            ))),
            HelloReply::Error(reply) => Err(WireError::Remote(reply)),
        }
    }

    /// The trace id sent with the most recent request, for correlating
    /// client calls with the server's structured events.
    pub fn last_trace_id(&self) -> Option<&str> {
        self.last_trace.as_deref()
    }

    /// Sends one request and reads its response, reconnecting and
    /// retrying once if a *reused* connection turns out broken and the
    /// request is safe to repeat (see the module docs). The request
    /// travels in an envelope with a fresh trace id (the retry reuses
    /// the same id — it is the same logical request).
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        let trace_id = tdess_obs::gen_trace_id();
        // Encoded from the borrowed request: meshes can be large.
        let payload = encode_envelope(Some(&trace_id), req)?;
        self.last_trace = Some(trace_id);
        let reused = self.stream.is_some();
        let (sent, err) = match self.attempt(&payload) {
            Ok(resp) => return Ok(resp),
            Err(e) => e,
        };
        // Any transport failure poisons the pooled connection.
        self.stream = None;
        let safe_to_retry = !sent || req.is_idempotent();
        if !(self.cfg.retry_on_disconnect && reused && err.is_disconnect() && safe_to_retry) {
            return Err(err);
        }
        self.attempt(&payload).map_err(|(_, e)| {
            self.stream = None;
            e
        })
    }

    /// One write+read round trip. The error carries whether the
    /// request frame was fully written (`true` means the server may
    /// have executed it).
    fn attempt(&mut self, payload: &[u8]) -> Result<Response, (bool, WireError)> {
        if self.stream.is_none() {
            self.stream = Some(self.dial().map_err(|e| (false, e))?);
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err((false, WireError::Disconnected));
        };
        // hotpath: allow(hot-block) — client-side frame exchange, in the server graph only via name-level over-approximation
        if let Err(e) = write_frame(stream, payload) {
            return Err((false, e));
        }
        match read_frame(stream, self.cfg.max_frame_len) {
            Ok(Some(reply)) => decode::<Response>(&reply).map_err(|e| (true, e)),
            Ok(None) => Err((true, WireError::Disconnected)),
            Err(e) => Err((true, e)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// One-shot search with already-extracted query features.
    pub fn search_features(
        &mut self,
        features: &FeatureSet,
        query: &Query,
    ) -> Result<HitsReport, WireError> {
        match self.request(&Request::SearchFeatures {
            features: features.clone(),
            query: query.clone(),
        })? {
            Response::Hits(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// One-shot query-by-example; the server extracts features.
    pub fn search_mesh(&mut self, mesh: &TriMesh, query: &Query) -> Result<HitsReport, WireError> {
        match self.request(&Request::SearchMesh {
            mesh: mesh.clone(),
            query: query.clone(),
        })? {
            Response::Hits(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Multi-step search (candidate retrieval + re-ranking).
    pub fn multi_step(
        &mut self,
        mesh: &TriMesh,
        plan: &MultiStepPlan,
    ) -> Result<HitsReport, WireError> {
        match self.request(&Request::MultiStep {
            mesh: mesh.clone(),
            plan: plan.clone(),
        })? {
            Response::Hits(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Inserts a shape; returns the id the server assigned.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        mesh: &TriMesh,
    ) -> Result<ShapeId, WireError> {
        match self.request(&Request::Insert {
            name: name.into(),
            // hotpath: allow(hot-alloc) — client-side request body, in the server graph only via name-level over-approximation
            mesh: mesh.clone(),
        })? {
            Response::Inserted { id } => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Removes a shape by id.
    pub fn remove(&mut self, id: ShapeId) -> Result<(), WireError> {
        match self.request(&Request::Remove { id })? {
            Response::Removed { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Database summary.
    pub fn info(&mut self) -> Result<InfoReport, WireError> {
        match self.request(&Request::Info)? {
            Response::Info(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Query + transport metrics.
    pub fn stats(&mut self) -> Result<StatsReport, WireError> {
        match self.request(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Recent request traces from the server's flight recorder.
    /// `last > 0` limits to the most recent traces; `slow` keeps only
    /// slow/error retentions.
    pub fn traces(&mut self, last: usize, slow: bool) -> Result<TracesReport, WireError> {
        match self.request(&Request::Traces { last, slow })? {
            Response::Traces(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }
}

/// Maps an off-script response onto a typed error: server error
/// replies pass through, anything else is a protocol violation.
fn unexpected(resp: &Response) -> WireError {
    match resp {
        // hotpath: allow(hot-alloc) — client-side error reporting, in the server graph only via name-level over-approximation
        Response::Error(reply) => WireError::Remote(reply.clone()),
        other => WireError::Protocol(format!(
            "unexpected response variant: {}",
            variant_name(other)
        )),
    }
}

/// Stable variant label for protocol-violation messages.
fn variant_name(resp: &Response) -> &'static str {
    match resp {
        Response::Hits(_) => "Hits",
        Response::Inserted { .. } => "Inserted",
        Response::Removed { .. } => "Removed",
        Response::Info(_) => "Info",
        Response::Stats(_) => "Stats",
        Response::Traces(_) => "Traces",
        Response::Pong => "Pong",
        Response::Error(_) => "Error",
    }
}
