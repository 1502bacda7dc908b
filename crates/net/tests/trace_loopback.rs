//! End-to-end request tracing over a loopback connection: a slow
//! request's span tree must be retained by the server's flight
//! recorder, retrievable over the `Traces` wire request, exportable as
//! Chrome trace-event JSON that passes a shape check, and served over
//! the HTTP `/traces` and `/healthz` routes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tdess_core::{CacheConfig, Query, SearchServer, ShapeDatabase};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, Vec3};
use tdess_net::{MetricsRoute, MetricsServer, NetClient, NetServer, NetServerConfig};
use tdess_obs::RequestTrace;

fn cached_search_server() -> SearchServer {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
        .unwrap();
    db.insert("sphere", primitives::uv_sphere(1.0, 10, 5))
        .unwrap();
    SearchServer::with_cache(db, CacheConfig::default())
}

/// A zero slow-threshold makes every request "slow", so the tail
/// sampler must retain them all regardless of the sampling rate.
fn traced_config() -> NetServerConfig {
    NetServerConfig {
        workers: 1,
        slow_request: Duration::ZERO,
        trace_capacity: 16,
        // Would drop most traces if the slow rule did not fire first.
        trace_sample_one_in: 1000,
        ..NetServerConfig::default()
    }
}

/// A client's trace id crosses the binary envelope intact and names
/// the trace the flight recorder keeps.
#[test]
fn client_trace_id_names_the_retained_trace() {
    let cfg = NetServerConfig {
        workers: 1,
        trace_sample_one_in: 1,
        ..NetServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", cached_search_server(), cfg).unwrap();
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();
    client.ping().unwrap();
    let id = client.last_trace_id().unwrap().to_string();
    assert_eq!(id.len(), 16);
    // The same connection's next request is answered after the ping's
    // trace was recorded.
    let report = client.traces(0, false).unwrap();
    assert!(
        report
            .traces
            .iter()
            .any(|t| t.trace_id == id && t.name == "Ping"),
        "no Ping trace with id {id}: {:?}",
        report.traces
    );
}

/// The acceptance path: drive a search over the wire, pull the trace
/// back with the `Traces` request, and verify the span tree — request
/// root, nested stage spans, cache annotations — plus the tail
/// sampler's retention label.
#[test]
fn slow_request_trace_is_retrievable_with_well_formed_span_tree() {
    let mut server =
        NetServer::bind("127.0.0.1:0", cached_search_server(), traced_config()).unwrap();
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();

    let query = Query::top_k(FeatureKind::PrincipalMoments, 1);
    let mesh = primitives::box_mesh(Vec3::ONE);
    client.search_mesh(&mesh, &query).unwrap(); // cache miss
    client.search_mesh(&mesh, &query).unwrap(); // cache hit
    let second_id = client.last_trace_id().unwrap().to_string();

    let report = client.traces(0, true).unwrap();
    assert_eq!(report.slow_threshold_us, 0);
    // The Traces request itself may already be in the ring; search
    // traces are the ones under test.
    let searches: Vec<&Arc<RequestTrace>> = report
        .traces
        .iter()
        .filter(|t| t.name == "SearchMesh")
        .collect();
    assert_eq!(searches.len(), 2, "both searches retained: {report:?}");

    for trace in &searches {
        assert_eq!(trace.retained, "slow");
        assert!(!trace.error);
        // Root span: id 1, parent 0, named after the request kind.
        assert_eq!(trace.spans[0].id, 1);
        assert_eq!(trace.spans[0].parent, 0);
        assert_eq!(trace.spans[0].name, "SearchMesh");
        // Ids are positional and every parent precedes its children.
        for (i, s) in trace.spans.iter().enumerate() {
            assert_eq!(s.id as usize, i + 1);
            assert!(s.parent < s.id, "span {} has forward parent", s.id);
        }
    }

    // The client's trace id addresses the second (warm) search.
    let warm = searches
        .iter()
        .find(|t| t.trace_id == second_id)
        .expect("warm search trace carries the client's trace id");
    let cold = searches.iter().find(|t| t.trace_id != second_id).unwrap();

    let extract = |t: &RequestTrace| {
        t.spans
            .iter()
            .find(|s| s.name == "query_extract")
            .expect("query_extract span")
            .clone()
    };
    let cache_tag = |t: &RequestTrace| {
        extract(t)
            .tags
            .iter()
            .find(|(k, _)| k == "cache")
            .map(|(_, v)| v.clone())
    };
    assert_eq!(cache_tag(cold).as_deref(), Some("miss"));
    assert_eq!(cache_tag(warm).as_deref(), Some("hit"));
    // The cold extraction nests the pipeline stages under
    // query_extract.
    let cold_extract = extract(cold);
    for stage in [
        "normalize",
        "voxelize",
        "skeletonize",
        "graph_build",
        "eigen",
    ] {
        assert!(
            cold.spans
                .iter()
                .any(|s| s.name == stage && s.parent == cold_extract.id),
            "missing {stage} under query_extract in {cold:?}"
        );
    }
    // Stage spans stay inside their parent's time window.
    for s in &cold.spans {
        if s.parent == cold_extract.id {
            assert!(s.start_us >= cold_extract.start_us);
            assert!(s.start_us + s.dur_us <= cold_extract.start_us + cold_extract.dur_us + 1);
        }
    }

    // `last` caps the reply.
    let limited = client.traces(1, false).unwrap();
    assert_eq!(limited.traces.len(), 1);

    server.shutdown();

    // The exported Chrome trace-event JSON round-trips through a
    // schema check: a metadata event per trace plus one complete
    // ("ph":"X") event per span, with the cache annotation in args.
    let chrome = tdess_obs::chrome_trace_json(&report.traces);
    let v: serde::Value = serde_json::from_str(&chrome).expect("chrome export parses");
    let obj = v.as_obj().expect("top-level object");
    let unit = obj.iter().find(|(k, _)| k == "displayTimeUnit").unwrap();
    assert_eq!(unit.1, serde::Value::Str("ms".into()));
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let span_count: usize = report.traces.iter().map(|t| t.spans.len()).sum();
    assert_eq!(events.len(), report.traces.len() + span_count);
    let mut saw_cache_annotation = false;
    for ev in events {
        let ph = ev.get("ph").expect("event phase");
        match ph {
            serde::Value::Str(s) if s == "M" => {
                assert_eq!(
                    ev.get("name"),
                    Some(&serde::Value::Str("thread_name".into()))
                );
            }
            serde::Value::Str(s) if s == "X" => {
                for key in ["pid", "tid", "name", "ts", "dur", "args"] {
                    assert!(ev.get(key).is_some(), "X event missing {key}");
                }
                let args = ev.get("args").unwrap();
                if args
                    .get("cache")
                    .is_some_and(|c| matches!(c, serde::Value::Str(_)))
                {
                    saw_cache_annotation = true;
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(
        saw_cache_annotation,
        "no cache annotation exported:\n{chrome}"
    );
}

/// The HTTP side of the tentpole plus the `/healthz` satellite: the
/// route table serves Prometheus text, liveness, and Chrome-trace JSON
/// from the same recorder the wire request reads.
#[test]
fn traces_and_healthz_routes_serve_alongside_metrics() {
    let search = cached_search_server();
    let mut server = NetServer::bind("127.0.0.1:0", search.clone(), traced_config()).unwrap();
    let recorder = server.recorder();
    let metrics = MetricsServer::bind_routes(
        "127.0.0.1:0",
        vec![
            MetricsRoute::metrics(server.metrics_renderer()),
            MetricsRoute::healthz(Arc::new(move || search.metrics().snapshot_swaps)),
            MetricsRoute::traces(Arc::new(move || {
                tdess_obs::chrome_trace_json(&recorder.snapshot(0, false))
            })),
        ],
    )
    .unwrap();

    let mut client = NetClient::connect_default(server.local_addr()).unwrap();
    let query = Query::top_k(FeatureKind::PrincipalMoments, 1);
    client
        .search_mesh(&primitives::box_mesh(Vec3::ONE), &query)
        .unwrap();
    // A request's trace is finished after its reply is written, and
    // the worker records it before reading the connection's next
    // frame: once the ping is answered, the search's trace is in the
    // recorder the HTTP route reads.
    client.ping().unwrap();

    let health = scrape(&metrics, "/healthz");
    assert!(health.starts_with("HTTP/1.0 200 OK"), "{health}");
    assert!(health.contains("text/plain"), "{health}");
    assert!(health.contains("ok\nuptime_seconds "), "{health}");
    assert!(health.contains("snapshot_generation "), "{health}");

    let traces = scrape(&metrics, "/traces");
    assert!(traces.starts_with("HTTP/1.0 200 OK"), "{traces}");
    assert!(traces.contains("application/json"), "{traces}");
    let body = traces.split("\r\n\r\n").nth(1).unwrap();
    let v: serde::Value = serde_json::from_str(body).expect("/traces body is JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    assert!(!events.is_empty(), "expected retained traces in {body}");

    // The classic route still works, and unknown paths 404 with a
    // hint listing every route.
    let prom = scrape(&metrics, "/metrics");
    assert!(prom.contains("tdess_requests_served_total"), "{prom}");
    let missing = scrape(&metrics, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    assert!(missing.contains("/metrics /healthz /traces"), "{missing}");

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
