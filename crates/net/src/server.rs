//! The network front end: a bounded thread-pool TCP server exposing a
//! [`SearchServer`] over the framed wire protocol of [`crate::proto`].
//!
//! ## Architecture
//!
//! One accept thread pushes connections into a bounded crossbeam
//! channel; a fixed pool of worker threads pops them and runs one
//! connection each to completion (handshake, then a request/response
//! loop). When the queue is full the accept thread answers the
//! connection with a [`ErrorKind::Busy`] error frame and drops it —
//! backpressure is explicit, never an unbounded thread spawn.
//!
//! ## Timeouts and shutdown
//!
//! Worker sockets run with a short poll interval so a blocked read can
//! observe the shutdown flag. The read deadline is armed only once the
//! first byte of a frame arrives: an idle keep-alive connection may
//! sit forever, but a peer that starts a frame must finish it within
//! [`NetServerConfig::read_timeout`]. On [`NetServer::shutdown`] the
//! listener stops accepting, queued-but-unstarted connections are
//! answered with [`ErrorKind::Shutdown`], and connections mid-request
//! finish their in-flight request before closing — no accepted request
//! is ever dropped.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel;
use tdess_core::{check_vector, DbError, MultiStepPlan, Query, QueryMode, SearchServer, Weights};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::TriMesh;
use tdess_obs::{event, Counter, FlightRecorder, Histogram, RecorderConfig, TraceGuard};

use crate::proto::{
    decode_json, decode_request, encode, encode_json, write_frame, ErrorKind, ErrorReply, Hello,
    HelloReply, HitsReport, InfoReport, Request, RequestStats, Response, StageStats, StatsReport,
    TracesReport, TransportStats, WireError, DEFAULT_MAX_FRAME_LEN, MAGIC, PROTOCOL_VERSION,
};

/// Event target for this module's structured log events.
const TARGET: &str = "tdess_net::server";

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Worker threads; each runs one connection at a time.
    pub workers: usize,
    /// Accepted connections waiting for a free worker; beyond this the
    /// server answers [`ErrorKind::Busy`].
    pub queue_depth: usize,
    /// Time budget for a peer to deliver a frame once its first byte
    /// has arrived. Idle time between frames is not limited.
    pub read_timeout: Duration,
    /// Socket write timeout for response frames.
    pub write_timeout: Duration,
    /// Hard cap on a frame's payload length.
    pub max_frame_len: usize,
    /// How often a blocked read wakes to check the shutdown flag.
    pub poll_interval: Duration,
    /// Requests slower than this emit a warn-level slow-query event
    /// carrying the request's trace id, and are always retained by the
    /// flight recorder (the tail sampler's "slow" class).
    pub slow_request: Duration,
    /// Flight-recorder ring capacity in traces.
    pub trace_capacity: usize,
    /// Keep one in this many unremarkable traces (slow and error
    /// traces are always kept); `0` or `1` keeps every trace.
    pub trace_sample_one_in: u64,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(25),
            slow_request: Duration::from_secs(1),
            trace_capacity: 128,
            trace_sample_one_in: 16,
        }
    }
}

/// Lock-free transport counters, snapshotted into
/// [`TransportStats`] for `Stats` responses.
#[derive(Debug, Default)]
pub struct TransportCounters {
    connections_accepted: Counter,
    connections_rejected: Counter,
    frames_decoded: Counter,
    decode_errors: Counter,
    requests_served: Counter,
}

impl TransportCounters {
    /// A consistent-enough copy for reporting (individual counters are
    /// read independently; exact cross-counter consistency is not
    /// promised).
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            connections_accepted: self.connections_accepted.get(),
            connections_rejected: self.connections_rejected.get(),
            frames_decoded: self.frames_decoded.get(),
            decode_errors: self.decode_errors.get(),
            requests_served: self.requests_served.get(),
        }
    }
}

/// State shared by the accept thread and all workers.
struct NetShared {
    search: SearchServer,
    cfg: NetServerConfig,
    shutdown: AtomicBool,
    counters: TransportCounters,
    /// Request latency, one histogram per [`Request::KINDS`] entry:
    /// each request's root span, from frame arrival to reply written.
    /// Built on the heap one histogram at a time: as an array value,
    /// its 70 kB would pass through the stack on the way into the
    /// `Arc`, and the touched stack pages stay resident.
    latency: Box<[Histogram]>,
    /// Completed request traces under tail-based sampling, served by
    /// the `Traces` wire request and the `/traces` metrics route.
    recorder: Arc<FlightRecorder>,
    /// Receiver clone used only to observe the waiting-connection
    /// count for the metrics page; workers hold their own clones, so
    /// this one never gates shutdown (that is keyed on the Senders).
    queue: channel::Receiver<TcpStream>,
}

/// A running TCP front end over a [`SearchServer`]. Dropping the
/// handle shuts the server down gracefully.
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` and starts the accept thread plus worker pool.
    /// Pass port 0 to bind an ephemeral port; [`NetServer::local_addr`]
    /// reports the actual one.
    pub fn bind(
        addr: impl ToSocketAddrs,
        search: SearchServer,
        cfg: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = channel::bounded::<TcpStream>(cfg.queue_depth.max(1));
        let shared = Arc::new(NetShared {
            search,
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            counters: TransportCounters::default(),
            latency: Request::KINDS.iter().map(|_| Histogram::new()).collect(),
            recorder: Arc::new(FlightRecorder::new(RecorderConfig {
                capacity: cfg.trace_capacity,
                slow: cfg.slow_request,
                sample_one_in: cfg.trace_sample_one_in,
            })),
            queue: rx.clone(),
        });

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let rx = rx.clone();
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("tdess-net-worker-{i}"))
                .spawn(move || worker_loop(&rx, &shared))?;
            workers.push(handle);
        }
        drop(rx);

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("tdess-net-accept".to_string())
            .spawn(move || accept_loop(&listener, &tx, &accept_shared))?;

        event!(
            Info,
            TARGET,
            "server listening on {local_addr} with {} workers",
            cfg.workers.max(1)
        );
        Ok(NetServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the transport counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting, drain the queue (answering
    /// not-yet-started connections with [`ErrorKind::Shutdown`]), let
    /// every in-flight request finish, and join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        let already_down = self.shared.shutdown.swap(true, Ordering::AcqRel);
        if !already_down {
            event!(Info, TARGET, "shutdown requested for {}", self.local_addr);
        }
        // Unblock the accept loop with a throwaway connection; if the
        // listener already failed this is a harmless refused dial.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(250));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The accept thread dropped the Sender; workers drain the
        // queue and exit on the resulting channel disconnect.
        let had_workers = !self.workers.is_empty();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if had_workers {
            event!(Info, TARGET, "server on {} stopped", self.local_addr);
        }
    }

    /// A closure rendering the current Prometheus metrics page (text
    /// exposition format 0.0.4): counters, gauges, and the per-request
    /// and per-stage latency histograms. It holds only the shared
    /// state — hand it to a [`crate::metrics::MetricsServer`] so the
    /// exposition endpoint outlives borrows of the `NetServer` handle
    /// itself.
    pub fn metrics_renderer(&self) -> Arc<dyn Fn() -> String + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || render_metrics(&shared))
    }

    /// The server's flight recorder — share it with a
    /// [`crate::metrics::MetricsServer`] so the `/traces` route reads
    /// the same ring the `Traces` wire request serves.
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }
}

/// Builds the Prometheus exposition text for one server's state.
fn render_metrics(shared: &NetShared) -> String {
    let mut page = tdess_obs::PromText::new();
    let metrics = shared.search.metrics();
    let transport = shared.counters.snapshot();
    page.counter(
        "tdess_queries_served_total",
        "Search queries executed by the core server.",
        metrics.queries_served,
    );
    page.counter(
        "tdess_snapshot_swaps_total",
        "Copy-on-write database snapshot publications.",
        metrics.snapshot_swaps,
    );
    page.counter(
        "tdess_connections_accepted_total",
        "TCP connections handed to a worker.",
        transport.connections_accepted,
    );
    page.counter(
        "tdess_connections_rejected_total",
        "TCP connections turned away (queue full or shutdown).",
        transport.connections_rejected,
    );
    page.counter(
        "tdess_frames_decoded_total",
        "Wire frames decoded successfully.",
        transport.frames_decoded,
    );
    page.counter(
        "tdess_decode_errors_total",
        "Frames rejected as malformed, oversized, or truncated.",
        transport.decode_errors,
    );
    page.counter(
        "tdess_requests_served_total",
        "Decoded requests answered with a response frame.",
        transport.requests_served,
    );
    page.gauge(
        "tdess_shapes",
        "Shapes in the current database snapshot.",
        shared.search.len() as f64,
    );
    page.gauge(
        "tdess_queue_depth",
        "Accepted connections waiting for a free worker.",
        shared.queue.len() as f64,
    );
    let requests: Vec<(&str, tdess_obs::HistogramSnapshot)> = Request::KINDS
        .into_iter()
        .zip(&shared.latency)
        .map(|(kind, hist)| (kind, hist.snapshot()))
        .collect();
    page.stage_histograms(
        "tdess_request_duration_seconds",
        "Request latency from frame arrival to reply written, labeled by request kind.",
        "request",
        &requests,
    );
    let stages: Vec<(&str, tdess_obs::HistogramSnapshot)> = tdess_obs::stage_snapshots()
        .into_iter()
        .map(|(stage, snap)| (stage.name(), snap))
        .collect();
    page.stage_histograms(
        "tdess_stage_duration_seconds",
        "Pipeline stage durations, labeled by stage.",
        "stage",
        &stages,
    );
    // Extraction-cache families only exist when the server runs one,
    // so a scrape distinguishes "cache off" from "cache cold".
    if let Some(cache) = shared.search.cache_stats() {
        page.counter(
            "tdess_cache_hits_total",
            "Query extractions answered from the feature cache.",
            cache.hits,
        );
        page.counter(
            "tdess_cache_misses_total",
            "Query extractions actually run (cache misses).",
            cache.misses,
        );
        page.counter(
            "tdess_cache_coalesced_waits_total",
            "Queries that waited on another query's in-flight extraction.",
            cache.coalesced_waits,
        );
        page.counter(
            "tdess_cache_evictions_total",
            "Cache entries evicted to stay inside the byte budget.",
            cache.evictions,
        );
        page.gauge(
            "tdess_cache_resident_bytes",
            "Bytes of feature vectors currently cached.",
            cache.resident_bytes as f64,
        );
        page.gauge(
            "tdess_cache_entries",
            "Feature sets currently cached.",
            cache.entries as f64,
        );
        page.gauge(
            "tdess_cache_capacity_bytes",
            "Configured cache byte budget.",
            cache.capacity_bytes as f64,
        );
    }
    page.finish()
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until shutdown, pushing them into the bounded
/// worker queue and answering with `Busy` when it is full.
fn accept_loop(listener: &TcpListener, tx: &channel::Sender<TcpStream>, shared: &NetShared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            // The stream that woke us (often the shutdown dial itself)
            // is turned away like any late arrival.
            if let Ok(stream) = stream {
                reject(
                    shared,
                    stream,
                    ErrorKind::Shutdown,
                    "server is shutting down",
                );
            }
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            // Transient per-connection failures (peer gone before
            // accept) don't kill the listener.
            Err(_) => continue,
        };
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(channel::TrySendError::Full(stream)) => {
                reject(
                    shared,
                    stream,
                    ErrorKind::Busy,
                    "accept queue is full; retry",
                );
            }
            Err(channel::TrySendError::Disconnected(_)) => break,
        }
    }
}

/// Answers a turned-away connection with one typed error frame, in
/// the handshake's JSON: the peer has not completed a handshake.
fn reject(shared: &NetShared, mut stream: TcpStream, kind: ErrorKind, message: &str) {
    shared.counters.connections_rejected.add(1);
    event!(Debug, TARGET, "connection rejected: {kind:?} ({message})");
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    if let Ok(payload) = encode_json(&HelloReply::Error(ErrorReply::new(kind, message))) {
        let _ = write_frame(&mut stream, &payload);
    }
}

/// Worker body: pop connections until the channel disconnects (accept
/// thread gone) and the queue is drained.
fn worker_loop(rx: &channel::Receiver<TcpStream>, shared: &NetShared) {
    event!(Debug, TARGET, "worker started");
    while let Ok(stream) = rx.recv() {
        if shared.shutdown.load(Ordering::Acquire) {
            // Queued but never started: turned away, not half-served.
            reject(
                shared,
                stream,
                ErrorKind::Shutdown,
                "server is shutting down",
            );
            continue;
        }
        shared.counters.connections_accepted.add(1);
        handle_connection(shared, stream);
    }
    event!(Debug, TARGET, "worker exiting");
}

/// What a shutdown-aware frame read produced.
enum Incoming {
    /// A complete in-limit frame payload.
    Frame(Vec<u8>),
    /// Clean EOF between frames, or shutdown observed while idle.
    Closed,
    /// An over-limit frame, fully drained off the wire so the
    /// connection stays usable.
    TooLarge { len: usize, max: usize },
}

/// One connection's socket plus the read policy applied to it.
struct Conn<'a> {
    stream: TcpStream,
    shared: &'a NetShared,
}

impl Conn<'_> {
    /// Sends one response frame.
    fn send(&mut self, resp: &Response) -> Result<(), WireError> {
        let payload = encode(resp)?;
        write_frame(&mut self.stream, &payload)
    }

    /// Sends one handshake-phase frame, as JSON.
    fn send_hello_reply(&mut self, reply: &HelloReply) -> Result<(), WireError> {
        let payload = encode_json(reply)?;
        write_frame(&mut self.stream, &payload)
    }

    /// Reads the next frame, polling so the shutdown flag is observed
    /// while idle. The read deadline starts at the frame's first byte,
    /// so a request already on the wire always completes.
    fn next_frame(&mut self) -> Result<Incoming, WireError> {
        let mut header = [0u8; 4];
        let deadline = match self.fill(&mut header, None)? {
            FillOutcome::Done(deadline) => deadline,
            FillOutcome::Idle => return Ok(Incoming::Closed),
        };
        let len = u32::from_le_bytes(header) as usize;
        let max = self.shared.cfg.max_frame_len;
        if len > max {
            self.drain(len, deadline)?;
            return Ok(Incoming::TooLarge { len, max });
        }
        let mut payload = vec![0u8; len];
        match self.fill(&mut payload, Some(deadline))? {
            FillOutcome::Done(_) => Ok(Incoming::Frame(payload)),
            FillOutcome::Idle => Err(WireError::Disconnected),
        }
    }

    /// Fills `buf` completely. With `deadline: None` the first loop
    /// iteration is "idle": a clean EOF or an observed shutdown flag
    /// returns [`FillOutcome::Idle`] instead of an error, and the
    /// deadline is armed when the first byte lands.
    fn fill(
        &mut self,
        buf: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<FillOutcome, WireError> {
        let mut filled = 0;
        let mut deadline = deadline;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 && deadline.is_none() {
                        return Ok(FillOutcome::Idle);
                    }
                    return Err(WireError::Truncated {
                        got: filled,
                        want: buf.len(),
                    });
                }
                Ok(n) => {
                    if deadline.is_none() {
                        deadline = Some(Instant::now() + self.shared.cfg.read_timeout);
                    }
                    filled += n;
                }
                Err(e) if is_poll_timeout(&e) => match deadline {
                    None => {
                        if self.shared.shutdown.load(Ordering::Acquire) {
                            return Ok(FillOutcome::Idle);
                        }
                    }
                    Some(d) => {
                        if Instant::now() >= d {
                            return Err(WireError::Io(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "frame read exceeded the read timeout",
                            )));
                        }
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let armed = deadline.unwrap_or_else(|| Instant::now() + self.shared.cfg.read_timeout);
        Ok(FillOutcome::Done(armed))
    }

    /// Reads and discards `remaining` payload bytes of an over-limit
    /// frame in fixed-size chunks (never allocating the declared
    /// length), honoring `deadline`.
    fn drain(&mut self, mut remaining: usize, deadline: Instant) -> Result<(), WireError> {
        let mut chunk = [0u8; 16 * 1024];
        while remaining > 0 {
            let want = remaining.min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(WireError::Truncated {
                        got: 0,
                        want: remaining,
                    })
                }
                Ok(n) => remaining -= n,
                Err(e) if is_poll_timeout(&e) => {
                    if Instant::now() >= deadline {
                        return Err(WireError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "oversized frame drain exceeded the read timeout",
                        )));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        Ok(())
    }
}

/// Result of [`Conn::fill`].
enum FillOutcome {
    /// Buffer filled; carries the deadline armed at the first byte.
    Done(Instant),
    /// Nothing arrived and the connection is done (EOF or shutdown).
    Idle,
}

/// Whether an I/O error is the poll-interval timeout (platform reports
/// `WouldBlock` or `TimedOut` for an expired `SO_RCVTIMEO`).
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Runs one connection to completion: handshake, then request frames
/// until the peer hangs up, a fatal transport error occurs, or
/// shutdown is observed between frames.
fn handle_connection(shared: &NetShared, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut conn = Conn { stream, shared };

    if !handshake(&mut conn) {
        event!(Debug, TARGET, "connection from {peer} failed handshake");
        return;
    }
    event!(Debug, TARGET, "connection from {peer} established");

    loop {
        match conn.next_frame() {
            Ok(Incoming::Closed) => {
                event!(Debug, TARGET, "connection from {peer} closed");
                return;
            }
            Ok(Incoming::TooLarge { len, max }) => {
                shared.counters.decode_errors.add(1);
                event!(
                    Warn,
                    TARGET,
                    "oversized frame from {peer}: {len} bytes exceeds the {max}-byte limit"
                );
                let reply = Response::Error(ErrorReply::new(
                    ErrorKind::FrameTooLarge,
                    format!("frame of {len} bytes exceeds the {max}-byte limit"),
                ));
                if conn.send(&reply).is_err() {
                    return;
                }
            }
            Ok(Incoming::Frame(payload)) => {
                // determinism: allow(time-taint) — the request clock feeds latency histograms, events and trace retention; reply frames never embed it
                let arrived = Instant::now();
                let sent = match decode_request(&payload) {
                    Ok((trace_id, req)) => {
                        shared.counters.frames_decoded.add(1);
                        answer(&mut conn, trace_id, req, arrived)
                    }
                    Err(e) => {
                        shared.counters.decode_errors.add(1);
                        event!(Warn, TARGET, "malformed frame from {peer}: {e}");
                        let reply = ErrorReply::new(ErrorKind::Malformed, e.to_string());
                        conn.send(&Response::Error(reply)).is_ok()
                    }
                };
                if !sent {
                    return;
                }
            }
            Err(_) => {
                shared.counters.decode_errors.add(1);
                event!(Debug, TARGET, "connection from {peer} dropped mid-frame");
                return;
            }
        }
    }
}

/// Answers one decoded request under its trace id (generating one when
/// the client sent none). The request's root span opened when its
/// frame `arrived`; it stays open through dispatch and the reply's
/// write, so its one duration is the request's latency. That duration
/// feeds the kind's latency histogram, the debug event, the warn-level
/// slow-request event past [`NetServerConfig::slow_request`], and the
/// flight recorder's slow rule. Returns whether the reply was written;
/// a request whose reply was not is not recorded.
fn answer(conn: &mut Conn<'_>, trace_id: Option<String>, req: Request, arrived: Instant) -> bool {
    let shared = conn.shared;
    let kind = req.kind();
    let name = Request::KINDS[kind];
    let trace_id = trace_id.unwrap_or_else(tdess_obs::gen_trace_id);
    // Every StageTimer the dispatch reaches hangs its span off this
    // tree (same thread).
    let guard = tdess_obs::begin_request(&trace_id, name, arrived);
    tdess_obs::with_trace_id(Some(trace_id), || {
        let resp = dispatch(shared, req);
        if conn.send(&resp).is_err() {
            return false;
        }
        shared.counters.requests_served.add(1);
        // Worker threads never nest traces, so the guard is armed.
        let Some(trace) = TraceGuard::finish(guard, matches!(resp, Response::Error(_))) else {
            return true;
        };
        let elapsed = Duration::from_micros(trace.dur_us);
        shared.latency[kind].record(elapsed);
        event!(
            Debug,
            TARGET,
            "request {name} served in {:.3} ms",
            elapsed.as_secs_f64() * 1e3
        );
        if elapsed >= shared.cfg.slow_request {
            // event_kv! renders the fields only when Warn passes the
            // filter, so a disabled logger costs no allocations here.
            tdess_obs::event_kv!(Warn, TARGET, "slow request", {
                request: name,
                elapsed_ms: format_args!("{:.3}", elapsed.as_secs_f64() * 1e3),
            });
        }
        shared.recorder.offer(trace);
        true
    })
}

/// Performs the server side of the handshake. Returns whether the
/// connection may proceed to the request loop. Every reply here is a
/// JSON [`HelloReply`], readable by a peer of any protocol version.
fn handshake(conn: &mut Conn<'_>) -> bool {
    let shared = conn.shared;
    let refuse = |conn: &mut Conn<'_>, kind: ErrorKind, message: String| {
        shared.counters.decode_errors.add(1);
        let _ = conn.send_hello_reply(&HelloReply::Error(ErrorReply::new(kind, message)));
        false
    };
    match conn.next_frame() {
        Ok(Incoming::Closed) => false,
        Ok(Incoming::TooLarge { len, max }) => refuse(
            conn,
            ErrorKind::FrameTooLarge,
            format!("handshake frame of {len} bytes exceeds the {max}-byte limit"),
        ),
        Ok(Incoming::Frame(payload)) => match decode_json::<Hello>(&payload) {
            Ok(hello) if hello.compatible() => {
                shared.counters.frames_decoded.add(1);
                conn.send_hello_reply(&HelloReply::HelloAck {
                    version: PROTOCOL_VERSION,
                })
                .is_ok()
            }
            Ok(hello) => refuse(
                conn,
                ErrorKind::VersionMismatch,
                format!(
                    "peer speaks {}/v{}, this server speaks {MAGIC}/v{PROTOCOL_VERSION}",
                    hello.magic, hello.version
                ),
            ),
            Err(e) => refuse(
                conn,
                ErrorKind::Malformed,
                format!("expected Hello handshake: {e}"),
            ),
        },
        Err(_) => {
            shared.counters.decode_errors.add(1);
            false
        }
    }
}

/// Checks a query against the extractor of the snapshot it will run
/// on: weights (length + finiteness) and threshold range — the parts
/// the core layer `assert!`s on, so a hostile or buggy client gets a
/// typed error instead of panicking a worker thread.
fn validate_query(extractor: &FeatureExtractor, query: &Query) -> Result<(), ErrorReply> {
    let dim = extractor.dim(query.kind);
    if let Weights(Some(w)) = &query.weights {
        if w.len() != dim {
            return Err(ErrorReply::new(
                ErrorKind::Malformed,
                // hotpath: allow(hot-alloc) — formats only on the rejected-request path
                format!("{} weights for a {dim}-dimensional space", w.len()),
            ));
        }
        if !w.iter().all(|v| v.is_finite() && *v >= 0.0) {
            return Err(ErrorReply::new(
                ErrorKind::Malformed,
                "weights must be finite and non-negative",
            ));
        }
    }
    if let QueryMode::Threshold(s) = query.mode {
        if !(0.0..=1.0).contains(&s) {
            return Err(ErrorReply::new(
                ErrorKind::Malformed,
                format!("similarity threshold {s} outside [0, 1]"),
            ));
        }
    }
    Ok(())
}

/// Checks a submitted mesh with [`TriMesh::check_input`]: a dangling
/// index or a non-finite coordinate would panic the core.
fn validate_mesh(mesh: &TriMesh) -> Result<(), ErrorReply> {
    mesh.check_input().map_err(|defect| {
        // hotpath: allow(hot-alloc) — formats only on the rejected-request path
        ErrorReply::new(ErrorKind::Malformed, format!("mesh: {defect}"))
    })
}

/// Checks a multi-step plan's shape (the core `assert!`s on it).
fn validate_plan(plan: &MultiStepPlan) -> Result<(), ErrorReply> {
    if plan.steps.is_empty() {
        return Err(ErrorReply::new(
            ErrorKind::Malformed,
            "multi-step plan needs at least one step",
        ));
    }
    if plan.candidates == 0 || plan.presented == 0 {
        return Err(ErrorReply::new(
            ErrorKind::Malformed,
            "multi-step candidate and presented counts must be at least 1",
        ));
    }
    Ok(())
}

/// Executes one request against the wrapped [`SearchServer`]. A search
/// takes one snapshot, validates against its extractor, runs on it,
/// and names its hits from it: a write published mid-search can
/// neither change the dimensions checked nor blank a real hit's name.
fn dispatch(shared: &NetShared, req: Request) -> Response {
    let search = &shared.search;
    let outcome = match req {
        Request::SearchFeatures { features, query } => {
            let snap = search.snapshot();
            let extractor = snap.extractor();
            FeatureKind::ALL
                .into_iter()
                .try_for_each(|kind| check_vector(kind, features.get(kind), extractor.dim(kind)))
                .map_err(|reason| ErrorReply::new(ErrorKind::Malformed, reason))
                .and_then(|()| validate_query(extractor, &query))
                .map(|()| {
                    let hits = search.search_features_on(&snap, &features, &query);
                    Response::Hits(HitsReport::new(&snap, &hits))
                })
        }
        Request::SearchMesh { mesh, query } => {
            let snap = search.snapshot();
            validate_mesh(&mesh)
                .and_then(|()| validate_query(snap.extractor(), &query))
                .map(|()| match search.search_mesh_on(&snap, &mesh, &query) {
                    Ok(hits) => Response::Hits(HitsReport::new(&snap, &hits)),
                    Err(e) => db_error_reply(&e),
                })
        }
        Request::MultiStep { mesh, plan } => validate_mesh(&mesh)
            .and_then(|()| validate_plan(&plan))
            .map(|()| {
                let snap = search.snapshot();
                match search.multi_step_mesh_on(&snap, &mesh, &plan) {
                    Ok(hits) => Response::Hits(HitsReport::new(&snap, &hits)),
                    Err(e) => db_error_reply(&e),
                }
            }),
        Request::Insert { name, mesh } => {
            validate_mesh(&mesh).map(|()| match search.insert(name, mesh) {
                Ok(id) => Response::Inserted { id },
                Err(e) => db_error_reply(&e),
            })
        }
        Request::Remove { id } => Ok(match search.remove(id) {
            Ok(()) => Response::Removed { id },
            Err(e) => db_error_reply(&e),
        }),
        Request::Info => Ok(Response::Info(InfoReport::for_db(&search.snapshot()))),
        Request::Stats => Ok(Response::Stats(StatsReport {
            shapes: search.len(),
            server: search.metrics(),
            transport: shared.counters.snapshot(),
            stages: StageStats::collect(),
            requests: RequestStats::collect(&shared.latency),
            cache: search.cache_stats(),
        })),
        Request::Traces { last, slow } => Ok(Response::Traces(TracesReport {
            slow_threshold_us: shared.recorder.slow_threshold_us(),
            traces: shared.recorder.snapshot(last, slow),
        })),
        Request::Ping => Ok(Response::Pong),
    };
    outcome.unwrap_or_else(Response::Error)
}

/// Maps a core database error onto a typed wire error reply.
fn db_error_reply(e: &DbError) -> Response {
    let kind = match e {
        DbError::Extraction(_) => ErrorKind::Extraction,
        DbError::UnknownShape(_) => ErrorKind::UnknownShape,
        DbError::WorkerFailure(_) => ErrorKind::Internal,
    };
    // hotpath: allow(hot-alloc) — the error envelope owns its message
    Response::Error(ErrorReply::new(kind, e.to_string()))
}
