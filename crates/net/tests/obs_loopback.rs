//! End-to-end observability tests over a loopback connection: client
//! trace ids must surface in the server's structured events (including
//! slow-query warnings), the `/metrics` endpoint must expose the
//! expected Prometheus families, and each request's root span must be
//! the one clock behind its latency series, stats row and trace.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tdess_core::{CacheConfig, Query, SearchServer, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, Vec3};
use tdess_net::{MetricsServer, NetClient, NetServer, NetServerConfig};
use tdess_obs::{Capture, Level};

fn search_server() -> SearchServer {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
        .unwrap();
    db.insert("sphere", primitives::uv_sphere(1.0, 10, 5))
        .unwrap();
    SearchServer::new(db)
}

/// The client's trace id must appear on the server's per-request debug
/// event and on the slow-query warning (forced here by a zero
/// threshold), and must NOT leak onto events outside the dispatch.
#[test]
fn client_trace_id_round_trips_into_server_events() {
    let capture = Capture::install();
    tdess_obs::set_level(Level::Debug);

    let cfg = NetServerConfig {
        workers: 1,
        slow_request: Duration::ZERO,
        ..NetServerConfig::default()
    };
    let mut server = NetServer::bind("127.0.0.1:0", search_server(), cfg).unwrap();
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();

    let query = Query::top_k(FeatureKind::PrincipalMoments, 1);
    let mesh = primitives::box_mesh(Vec3::ONE);
    let hits = client.search_mesh(&mesh, &query).unwrap();
    assert_eq!(hits.hits.len(), 1);
    let trace_id = client
        .last_trace_id()
        .expect("client records the sent trace id")
        .to_string();

    server.shutdown();
    tdess_obs::set_level(Level::Info);
    tdess_obs::sink_to_stderr();

    let log = capture.contents();
    let tagged: Vec<&str> = log.lines().filter(|l| l.contains(&trace_id)).collect();
    assert!(
        !tagged.is_empty(),
        "no server event carried trace id {trace_id}:\n{log}"
    );
    // The request-served debug event and the forced slow-query warning
    // both run inside the traced dispatch.
    assert!(
        tagged
            .iter()
            .any(|l| l.contains("request SearchMesh served")),
        "missing traced request event:\n{log}"
    );
    assert!(
        tagged
            .iter()
            .any(|l| l.contains("slow request") && l.contains("\"level\":\"warn\"")),
        "missing traced slow-query warning:\n{log}"
    );
    // Every tagged line is valid JSON carrying the id in the
    // `trace_id` field, not incidentally in the message text.
    for line in &tagged {
        let v = serde_json::from_str::<serde::Value>(line).expect("event line parses as JSON");
        let id = v.get("trace_id").and_then(|x| match x {
            serde::Value::Str(s) => Some(s.as_str()),
            _ => None,
        });
        assert_eq!(id, Some(trace_id.as_str()), "bad line: {line}");
    }
    // Lifecycle events outside a dispatch are untraced.
    let lifecycle: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("connection from") && l.contains("established"))
        .collect();
    assert!(!lifecycle.is_empty(), "missing connection event:\n{log}");
    assert!(lifecycle.iter().all(|l| !l.contains(&trace_id)));
}

/// A raw HTTP scrape of the metrics endpoint after live traffic must
/// contain counter, gauge, per-request and per-stage histogram
/// families.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let mut server =
        NetServer::bind("127.0.0.1:0", search_server(), NetServerConfig::default()).unwrap();
    let mut metrics = MetricsServer::bind("127.0.0.1:0", server.metrics_renderer()).unwrap();

    // Drive real traffic so the request and stage histograms are
    // non-empty.
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();
    let query = Query::top_k(FeatureKind::PrincipalMoments, 1);
    let mesh = primitives::box_mesh(Vec3::ONE);
    for _ in 0..3 {
        client.search_mesh(&mesh, &query).unwrap();
    }
    // The worker records a request after writing its reply, before it
    // reads the connection's next frame: once the ping is answered,
    // all three searches are in the histogram.
    client.ping().unwrap();

    let body = scrape(&metrics, "/metrics");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "bad response: {body}");
    assert!(body.contains("text/plain; version=0.0.4"));
    for family in [
        "# TYPE tdess_queries_served_total counter",
        "# TYPE tdess_requests_served_total counter",
        "# TYPE tdess_connections_accepted_total counter",
        "# TYPE tdess_shapes gauge",
        "# TYPE tdess_queue_depth gauge",
        "# TYPE tdess_request_duration_seconds histogram",
        "# TYPE tdess_stage_duration_seconds histogram",
    ] {
        assert!(body.contains(family), "missing {family:?} in:\n{body}");
    }
    assert!(
        body.contains(
            "tdess_request_duration_seconds_bucket{request=\"SearchMesh\",le=\"+Inf\"} 3\n"
        ),
        "missing SearchMesh series in:\n{body}"
    );
    // Per-stage series from the server-side extraction of the query
    // mesh, with a terminating +Inf bucket.
    assert!(body.contains("tdess_stage_duration_seconds_bucket{stage=\"query_extract\""));
    assert!(body.contains("tdess_queries_served_total 3"));
    // No request ran multi-step, so that series is absent rather than
    // a fake zero.
    assert!(
        !body.contains("request=\"MultiStep\""),
        "unexpected MultiStep series in:\n{body}"
    );

    // Anything but GET /metrics is a 404.
    let other = scrape(&metrics, "/else");
    assert!(other.starts_with("HTTP/1.0 404"), "bad response: {other}");

    metrics.shutdown();
    server.shutdown();
}

/// A server running with the extraction cache must answer repeat
/// queries identically to an uncached one, report the cache counters
/// over the stats verb, and expose `tdess_cache_*` families on
/// `/metrics` — while an uncached server omits both.
#[test]
fn cache_counters_surface_on_stats_and_metrics() {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
        .unwrap();
    db.insert("sphere", primitives::uv_sphere(1.0, 10, 5))
        .unwrap();
    let cached = SearchServer::with_cache(db.clone(), CacheConfig::default());

    let mut server = NetServer::bind("127.0.0.1:0", cached, NetServerConfig::default()).unwrap();
    let mut plain_server = NetServer::bind(
        "127.0.0.1:0",
        SearchServer::new(db),
        NetServerConfig::default(),
    )
    .unwrap();
    let metrics = MetricsServer::bind("127.0.0.1:0", server.metrics_renderer()).unwrap();
    let plain_metrics =
        MetricsServer::bind("127.0.0.1:0", plain_server.metrics_renderer()).unwrap();

    let mut client = NetClient::connect_default(server.local_addr()).unwrap();
    let mut plain_client = NetClient::connect_default(plain_server.local_addr()).unwrap();
    let query = Query::top_k(FeatureKind::PrincipalMoments, 2);
    let mesh = primitives::box_mesh(Vec3::ONE);

    let want = plain_client.search_mesh(&mesh, &query).unwrap();
    for _ in 0..3 {
        let got = client.search_mesh(&mesh, &query).unwrap();
        assert_eq!(want, got, "cached answers match the uncached server");
    }

    let report = client.stats().unwrap();
    let c = report.cache.expect("cached server reports cache stats");
    assert_eq!(c.misses, 1, "one extraction for three identical queries");
    assert_eq!(c.hits, 2);
    assert_eq!(c.entries, 1);
    assert!(c.resident_bytes > 0);
    assert!(plain_client.stats().unwrap().cache.is_none());

    let body = scrape(&metrics, "/metrics");
    for family in [
        "# TYPE tdess_cache_hits_total counter",
        "# TYPE tdess_cache_misses_total counter",
        "# TYPE tdess_cache_coalesced_waits_total counter",
        "# TYPE tdess_cache_evictions_total counter",
        "# TYPE tdess_cache_resident_bytes gauge",
        "# TYPE tdess_cache_entries gauge",
        "# TYPE tdess_cache_capacity_bytes gauge",
    ] {
        assert!(body.contains(family), "missing {family:?} in:\n{body}");
    }
    assert!(body.contains("tdess_cache_hits_total 2"), "{body}");
    assert!(body.contains("tdess_cache_misses_total 1"), "{body}");
    // Cache-off exposition carries no cache families at all.
    let plain_body = scrape(&plain_metrics, "/metrics");
    assert!(
        !plain_body.contains("tdess_cache_"),
        "uncached server must not expose cache families:\n{plain_body}"
    );

    server.shutdown();
    plain_server.shutdown();
}

/// Each request's root span is its one clock: after N `SearchMesh`
/// and M `Ping` requests, the `Stats` rows and the `/metrics` series
/// count exactly those, and a single request's histogram sample equals
/// its retained trace's duration to the microsecond.
#[test]
fn root_span_is_the_one_request_clock() {
    const N: u64 = 4;
    const M: u64 = 3;
    let cfg = NetServerConfig {
        trace_sample_one_in: 1,
        ..NetServerConfig::default()
    };
    let mut server = NetServer::bind("127.0.0.1:0", search_server(), cfg).unwrap();
    let metrics = MetricsServer::bind("127.0.0.1:0", server.metrics_renderer()).unwrap();
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();
    let query = Query::top_k(FeatureKind::PrincipalMoments, 1);
    let mesh = primitives::box_mesh(Vec3::ONE);
    for _ in 0..N {
        client.search_mesh(&mesh, &query).unwrap();
    }
    for _ in 0..M {
        client.ping().unwrap();
    }
    client.info().unwrap();
    let info_trace_id = client.last_trace_id().unwrap().to_string();

    // One worker runs the connection's requests in order, and each is
    // recorded before the next frame is read: the rows are final.
    let report = client.stats().unwrap();
    let rows: Vec<(&str, u64)> = report
        .requests
        .iter()
        .map(|r| (r.request.as_str(), r.latency.count))
        .collect();
    assert_eq!(rows, [("SearchMesh", N), ("Info", 1), ("Ping", M)]);

    let body = scrape(&metrics, "/metrics");
    assert!(
        body.contains(&format!(
            "tdess_request_duration_seconds_count{{request=\"SearchMesh\"}} {N}\n"
        )),
        "{body}"
    );
    assert!(
        body.contains(&format!(
            "tdess_request_duration_seconds_count{{request=\"Ping\"}} {M}\n"
        )),
        "{body}"
    );
    assert!(!body.contains("request=\"MultiStep\""), "{body}");

    // The single Info request: its histogram sample and its trace's
    // duration are one reading of one clock.
    let info = &report.requests[1].latency;
    assert_eq!(info.min_s, info.max_s);
    let traces = client.traces(0, false).unwrap().traces;
    let trace = traces
        .iter()
        .find(|t| t.trace_id == info_trace_id)
        .expect("every trace is kept at trace_sample_one_in 1");
    assert_eq!(trace.name, "Info");
    assert_eq!((info.max_s * 1e6).round() as u64, trace.dur_us);
    assert_eq!(trace.spans[0].dur_us, trace.dur_us);

    server.shutdown();
}

/// Issues one raw HTTP/1.0 request and returns the full response text.
fn scrape(metrics: &MetricsServer, path: &str) -> String {
    let mut stream = TcpStream::connect(metrics.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    body
}
