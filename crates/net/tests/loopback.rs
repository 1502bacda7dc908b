//! Loopback integration tests for the network tier: concurrent
//! clients against an in-process baseline, hostile frames, explicit
//! backpressure, graceful shutdown with zero dropped in-flight
//! requests, and the handshake across protocol versions.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use tdess_core::{MultiStepPlan, Query, SearchServer, ShapeDatabase, Weights};
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::{primitives, TriMesh, Vec3};
use tdess_net::proto::{
    decode, decode_json, encode, encode_json, read_frame, write_frame, Hello, HelloReply, Request,
    RequestEnvelope, Response, MAX_TRACE_ID_BYTES, PROTOCOL_VERSION,
};
use tdess_net::{
    ErrorKind, HitsReport, NetClient, NetClientConfig, NetServer, NetServerConfig, WireError,
};

fn small_db() -> ShapeDatabase {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: 12,
        ..Default::default()
    });
    db.insert("box", primitives::box_mesh(Vec3::new(2.0, 1.0, 0.5)))
        .unwrap();
    db.insert("cube", primitives::box_mesh(Vec3::ONE)).unwrap();
    db.insert("sphere", primitives::uv_sphere(1.0, 10, 5))
        .unwrap();
    db.insert("rod", primitives::cylinder(0.3, 4.0, 10))
        .unwrap();
    db.insert("torus", primitives::torus(1.5, 0.4, 10, 6))
        .unwrap();
    db
}

fn serve(cfg: NetServerConfig) -> NetServer {
    NetServer::bind("127.0.0.1:0", SearchServer::new(small_db()), cfg).unwrap()
}

/// Raw-socket handshake, for tests that need frame-level control.
fn raw_handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, &encode_json(&Hello::current()).unwrap()).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert_eq!(
        decode_json::<HelloReply>(&reply).unwrap(),
        HelloReply::HelloAck {
            version: PROTOCOL_VERSION
        }
    );
    stream
}

/// A v2 request payload without a trace id.
fn bare(request: Request) -> Vec<u8> {
    encode(&RequestEnvelope {
        trace_id: None,
        request,
    })
    .unwrap()
}

/// Sends one payload and decodes the binary reply.
fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(stream, payload).unwrap();
    decode::<Response>(&read_frame(stream, 1 << 20).unwrap().unwrap()).unwrap()
}

#[test]
fn concurrent_clients_are_byte_identical_to_in_process() {
    let mut server = serve(NetServerConfig {
        workers: 8,
        ..Default::default()
    });
    let addr = server.local_addr();

    // In-process baseline over the same corpus (separate but
    // identically built database — construction is deterministic).
    let baseline = SearchServer::new(small_db());
    let snap = baseline.snapshot();
    let query_mesh = primitives::box_mesh(Vec3::new(1.9, 1.1, 0.6));
    let features = snap.extractor().extract(&query_mesh).unwrap();
    let query = Query::top_k(FeatureKind::MomentInvariants, 4);
    let plan = MultiStepPlan {
        steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
        candidates: 4,
        presented: 3,
    };

    let expect_features = HitsReport::new(&snap, &baseline.search_features(&features, &query));
    let expect_mesh = HitsReport::new(&snap, &baseline.search_mesh(&query_mesh, &query).unwrap());
    let expect_multi = HitsReport::new(
        &snap,
        &baseline.multi_step_mesh(&query_mesh, &plan).unwrap(),
    );

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let features = features.clone();
            let query = query.clone();
            let query_mesh = query_mesh.clone();
            let plan = plan.clone();
            std::thread::spawn(move || {
                let mut client = NetClient::connect_default(addr).unwrap();
                let by_features = client.search_features(&features, &query).unwrap();
                let by_mesh = client.search_mesh(&query_mesh, &query).unwrap();
                let multi = client.multi_step(&query_mesh, &plan).unwrap();
                let info = client.info().unwrap();
                (by_features, by_mesh, multi, info)
            })
        })
        .collect();

    for h in handles {
        let (by_features, by_mesh, multi, info) = h.join().unwrap();
        // Byte-identical: the JSON the wire carried re-serializes to
        // exactly the bytes the in-process reports produce.
        assert_eq!(
            serde_json::to_string(&by_features).unwrap(),
            serde_json::to_string(&expect_features).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&by_mesh).unwrap(),
            serde_json::to_string(&expect_mesh).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&multi).unwrap(),
            serde_json::to_string(&expect_multi).unwrap()
        );
        assert_eq!(info.shapes, 5);
        assert_eq!(info.voxel_resolution, 12);
    }

    // Joining the workers (shutdown) makes the counters final —
    // requests_served is bumped after the response frame is written,
    // so a client can observe its reply before the bump lands.
    server.shutdown();
    let stats = server.transport_stats();
    assert_eq!(stats.connections_accepted, 8);
    assert_eq!(stats.requests_served, 8 * 4);
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn hostile_frames_get_typed_errors_and_the_connection_survives() {
    let mut server = serve(NetServerConfig {
        workers: 2,
        max_frame_len: 1024,
        ..Default::default()
    });
    let mut stream = raw_handshake(server.local_addr());

    // Garbage payloads — text, a v1 JSON request, and a v2 payload
    // with a trailing byte: typed Malformed errors, connection stays up.
    let mut trailing = bare(Request::Ping);
    trailing.push(0);
    for garbage in [
        &b"{ definitely not a request"[..],
        br#"{"trace_id":null,"request":"Ping"}"#,
        &trailing,
    ] {
        match exchange(&mut stream, garbage) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Malformed),
            other => panic!("expected Malformed error, got {other:?}"),
        }
    }

    // Oversized frame: typed FrameTooLarge error, payload drained,
    // connection stays up.
    match exchange(&mut stream, &[b'x'; 4096]) {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::FrameTooLarge),
        other => panic!("expected FrameTooLarge error, got {other:?}"),
    }

    // The same connection still answers a valid request.
    assert_eq!(exchange(&mut stream, &bare(Request::Ping)), Response::Pong);

    let stats = server.transport_stats();
    assert_eq!(stats.decode_errors, 4);
    server.shutdown();
}

#[test]
fn overlong_trace_id_is_malformed_and_the_connection_survives() {
    let server = serve(NetServerConfig::default());
    let mut stream = raw_handshake(server.local_addr());
    let with_id = |bytes: usize| {
        encode(&RequestEnvelope {
            trace_id: Some("a".repeat(bytes)),
            request: Request::Ping,
        })
        .unwrap()
    };
    match exchange(&mut stream, &with_id(MAX_TRACE_ID_BYTES + 1)) {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Malformed);
            assert!(e.message.contains("trace id"), "{}", e.message);
        }
        other => panic!("expected Malformed error, got {other:?}"),
    }
    assert_eq!(
        exchange(&mut stream, &with_id(MAX_TRACE_ID_BYTES)),
        Response::Pong
    );
    assert_eq!(exchange(&mut stream, &bare(Request::Ping)), Response::Pong);
}

#[test]
fn version_mismatch_is_rejected_with_a_typed_error() {
    let server = serve(NetServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Hello {
        magic: "tdess".into(),
        version: PROTOCOL_VERSION + 7,
    };
    write_frame(&mut stream, &encode_json(&hello).unwrap()).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    match decode_json::<HelloReply>(&reply).unwrap() {
        HelloReply::Error(e) => assert_eq!(e.kind, ErrorKind::VersionMismatch),
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn v1_hello_gets_one_json_version_mismatch_frame() {
    let server = serve(NetServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, br#"{"magic":"tdess","version":1}"#).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    // The shape a v1 client decodes as its `Response::Error`.
    let value: serde::Value = decode_json(&reply).unwrap();
    let error = value.get("Error").expect("externally tagged Error");
    assert_eq!(
        error.get("kind"),
        Some(&serde::Value::Str("VersionMismatch".into()))
    );
    let message = format!("{:?}", error.get("message"));
    assert!(
        message.contains("v1") && message.contains("v2"),
        "{message}"
    );
    // Exactly one frame, then the server hangs up.
    assert!(read_frame(&mut stream, 1 << 20).unwrap().is_none());
}

/// A one-connection stub that reads the client's hello and answers
/// with `reply`, standing in for a server of another version.
fn stub_server(reply: &'static [u8]) -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        write_frame(&mut stream, reply).unwrap();
        hello
    });
    (addr, handle)
}

#[test]
fn client_reports_a_v1_servers_version_mismatch_as_remote() {
    let (addr, stub) = stub_server(
        br#"{"Error":{"kind":"VersionMismatch","message":"peer speaks tdess/v2, this server speaks tdess/v1"}}"#,
    );
    let err = NetClient::connect_default(addr).err().expect("refused");
    assert!(
        matches!(&err, WireError::Remote(e) if e.kind == ErrorKind::VersionMismatch),
        "got: {err}"
    );
    let hello: Hello = decode_json(&stub.join().unwrap()).unwrap();
    assert_eq!(hello, Hello::current());
}

#[test]
fn client_rejects_a_v1_hello_ack() {
    let (addr, stub) = stub_server(br#"{"HelloAck":{"version":1}}"#);
    let err = NetClient::connect_default(addr).err().expect("refused");
    assert!(matches!(&err, WireError::Handshake(_)), "got: {err}");
    assert!(err.to_string().contains("v1"), "{err}");
    stub.join().unwrap();
}

#[test]
fn requests_that_would_panic_the_core_get_typed_errors() {
    let server = serve(NetServerConfig::default());
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();

    // Empty multi-step plan (the core asserts on this).
    let err = client
        .multi_step(
            &primitives::box_mesh(Vec3::ONE),
            &MultiStepPlan {
                steps: vec![],
                candidates: 4,
                presented: 3,
            },
        )
        .unwrap_err();
    assert!(matches!(err, WireError::Remote(e) if e.kind == ErrorKind::Malformed));

    // Out-of-range similarity threshold (the core asserts on this).
    let snap = SearchServer::new(small_db()).snapshot();
    let features = snap
        .extractor()
        .extract(&primitives::box_mesh(Vec3::ONE))
        .unwrap();
    let bad = Query {
        mode: tdess_core::QueryMode::Threshold(2.0),
        ..Query::top_k(FeatureKind::MomentInvariants, 3)
    };
    let err = client.search_features(&features, &bad).unwrap_err();
    assert!(matches!(err, WireError::Remote(e) if e.kind == ErrorKind::Malformed));

    // Submitted vectors and weights the core would index with or
    // assert on: a vector one value short, a NaN, a value whose square
    // overflows a distance, too few weights and a negative weight.
    // Each is Malformed, and the connection stays good after each.
    let mi = Query::top_k(FeatureKind::MomentInvariants, 3);
    let weighted = |w: Vec<f64>| Query {
        weights: Weights(Some(w)),
        ..mi.clone()
    };
    let mut short = features.clone();
    short.moment_invariants.pop();
    let mut nan = features.clone();
    nan.moment_invariants[1] = f64::NAN;
    let mut huge = features.clone();
    huge.moment_invariants[2] = 1e200;
    for (sent, query) in [
        (&short, mi.clone()),
        (&nan, mi.clone()),
        (&huge, mi.clone()),
        (&features, weighted(vec![1.0, 1.0])),
        (&features, weighted(vec![1.0, -1.0, 1.0])),
    ] {
        let err = client.search_features(sent, &query).unwrap_err();
        assert!(
            matches!(&err, WireError::Remote(e) if e.kind == ErrorKind::Malformed),
            "{err:?}"
        );
        client.ping().unwrap();
    }

    // Unknown shape id: typed, not a panic, and the connection is
    // still good afterwards.
    let err = client.remove(999).unwrap_err();
    assert!(matches!(err, WireError::Remote(e) if e.kind == ErrorKind::UnknownShape));
    client.ping().unwrap();
}

/// Meshes the core would panic on or answer with non-finite numbers
/// — a dangling index, a NaN vertex, coordinates whose moments
/// overflow, features whose distances overflow — draw typed errors
/// from a one-worker server, and that one worker still answers a fresh
/// connection after each.
#[test]
fn hostile_meshes_get_typed_errors_and_the_worker_survives() {
    let mut server = serve(NetServerConfig {
        workers: 1,
        ..Default::default()
    });
    let addr = server.local_addr();
    let connect = || {
        let cfg = NetClientConfig {
            request_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        NetClient::connect(addr, cfg).unwrap()
    };
    let scaled = |s: f64| {
        let mut m = primitives::box_mesh(Vec3::ONE);
        m.scale_uniform(s);
        m
    };
    let mut bad_index = primitives::box_mesh(Vec3::ONE);
    bad_index.triangles[0][1] = 99;
    let mut nan = primitives::box_mesh(Vec3::ONE);
    nan.vertices[2].z = f64::NAN;
    let (huge, overflowing) = (scaled(1e70), scaled(1e300));
    // Finite moments, but moment invariants that overflow to NaN.
    let mut far_vertex = primitives::box_mesh(Vec3::ONE);
    far_vertex.vertices[1] = Vec3::new(1e78, -1e78, 5e77);
    // Zero area, yet rounding far from the origin reads a volume.
    let v = Vec3::new(1e7, 1e7, 1e7);
    let sliver = TriMesh::new(
        vec![v, v + Vec3::X, Vec3::new(1e7, 1e7 + 1.0, 1e8)],
        vec![[1, 1, 2]],
    );
    // Finite features, but a volume of 1e160 among its geometric
    // parameters: distances to it would overflow.
    let vast = primitives::box_mesh(Vec3::new(1e56, 1e56, 1e48));
    let query = Query::top_k(FeatureKind::MomentInvariants, 3);
    let gp_query = Query::top_k(FeatureKind::GeometricParams, 3);
    let plan = MultiStepPlan {
        steps: vec![FeatureKind::MomentInvariants],
        candidates: 3,
        presented: 2,
    };

    type Send<'a> = Box<dyn Fn(&mut NetClient) -> Result<(), WireError> + 'a>;
    let cases: [(&str, ErrorKind, Send); 10] = [
        (
            "SearchMesh with a bad index",
            ErrorKind::Malformed,
            Box::new(|c| c.search_mesh(&bad_index, &query).map(drop)),
        ),
        (
            "MultiStep with a NaN vertex",
            ErrorKind::Malformed,
            Box::new(|c| c.multi_step(&nan, &plan).map(drop)),
        ),
        (
            "Insert of a box scaled by 1e70",
            ErrorKind::Extraction,
            Box::new(|c| c.insert("huge", &huge).map(drop)),
        ),
        (
            "SearchMesh of a box scaled by 1e300",
            ErrorKind::Extraction,
            Box::new(|c| c.search_mesh(&overflowing, &query).map(drop)),
        ),
        (
            "Insert of a box with a vertex at 1e78",
            ErrorKind::Extraction,
            Box::new(|c| c.insert("far", &far_vertex).map(drop)),
        ),
        (
            "SearchMesh of a box with a vertex at 1e78",
            ErrorKind::Extraction,
            Box::new(|c| c.search_mesh(&far_vertex, &query).map(drop)),
        ),
        (
            "Insert of a zero-area triangle near 1e7",
            ErrorKind::Extraction,
            Box::new(|c| c.insert("sliver", &sliver).map(drop)),
        ),
        (
            "SearchMesh of a zero-area triangle near 1e7",
            ErrorKind::Extraction,
            Box::new(|c| c.search_mesh(&sliver, &query).map(drop)),
        ),
        (
            "Insert of a 1e56 x 1e56 x 1e48 box",
            ErrorKind::Extraction,
            Box::new(|c| c.insert("vast", &vast).map(drop)),
        ),
        (
            "SearchMesh of a 1e56 x 1e56 x 1e48 box",
            ErrorKind::Extraction,
            Box::new(|c| c.search_mesh(&vast, &gp_query).map(drop)),
        ),
    ];
    for (what, kind, send) in &cases {
        let mut client = connect();
        let err = send(&mut client).expect_err(what);
        assert!(
            matches!(&err, WireError::Remote(e) if e.kind == *kind),
            "{what}: {err:?}"
        );
        drop(client);
        connect()
            .ping()
            .unwrap_or_else(|e| panic!("ping after {what}: {e}"));
    }
    server.shutdown();
}

/// A top-k or a candidate count past the database size answers every
/// shape: the request's count never sizes an allocation.
#[test]
fn top_k_and_candidates_past_the_database_answer_every_shape() {
    let server = serve(NetServerConfig::default());
    let mut client = NetClient::connect_default(server.local_addr()).unwrap();
    let mesh = primitives::box_mesh(Vec3::ONE);
    let features = SearchServer::new(small_db())
        .snapshot()
        .extractor()
        .extract(&mesh)
        .unwrap();

    let query = Query::top_k(FeatureKind::MomentInvariants, 1 << 40);
    let hits = client.search_features(&features, &query).unwrap();
    assert_eq!(hits.hits.len(), 5);
    client.ping().unwrap();

    let plan = MultiStepPlan {
        steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
        candidates: 1 << 40,
        presented: 1 << 40,
    };
    let hits = client.multi_step(&mesh, &plan).unwrap();
    assert_eq!(hits.hits.len(), 5);
    client.ping().unwrap();
}

#[test]
fn full_accept_queue_answers_busy() {
    let mut server = serve(NetServerConfig {
        workers: 1,
        queue_depth: 1,
        ..Default::default()
    });
    let addr = server.local_addr();

    // A occupies the only worker (a connection holds its worker for
    // its whole lifetime).
    let mut a = NetClient::connect_default(addr).unwrap();
    a.ping().unwrap();

    // B fills the depth-1 accept queue; its handshake stays pending.
    let b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // C overflows the queue: one typed Busy frame, then the server
    // hangs up.
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = read_frame(&mut c, 1 << 20).unwrap().unwrap();
    match decode_json::<HelloReply>(&reply).unwrap() {
        HelloReply::Error(e) => assert_eq!(e.kind, ErrorKind::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }

    // A still works while B waits.
    a.ping().unwrap();
    assert!(server.transport_stats().connections_rejected >= 1);

    // Freeing the worker lets the queued B proceed to a handshake.
    drop(a);
    let mut b = b;
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut b, &encode_json(&Hello::current()).unwrap()).unwrap();
    let reply = read_frame(&mut b, 1 << 20).unwrap().unwrap();
    assert!(matches!(
        decode_json::<HelloReply>(&reply).unwrap(),
        HelloReply::HelloAck { .. }
    ));
    server.shutdown();
}

#[test]
fn graceful_shutdown_completes_the_in_flight_request() {
    let mut server = serve(NetServerConfig {
        workers: 2,
        ..Default::default()
    });
    let mut stream = raw_handshake(server.local_addr());

    // Start a request frame but deliver only half of it: the server
    // has read the header, so the request is in flight.
    let payload = bare(Request::Ping);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).unwrap();
    let split = frame.len() / 2;
    stream.write_all(&frame[..split]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Shut down concurrently; it must block until the request is done.
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    std::thread::sleep(Duration::from_millis(150));

    // Deliver the rest; the in-flight request still gets its answer.
    stream.write_all(&frame[split..]).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert!(matches!(
        decode::<Response>(&reply).unwrap(),
        Response::Pong
    ));

    let server = shutdown.join().unwrap();
    let stats = server.transport_stats();
    assert_eq!(stats.requests_served, 1);

    // New connections are refused now.
    match TcpStream::connect(server.local_addr()) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // Either an explicit Shutdown frame or an immediate close.
            let mut buf = [0u8; 64];
            let _ = late.read(&mut buf);
        }
    }
}

#[test]
fn shutdown_under_concurrent_load_drops_no_answered_request() {
    let mut server = serve(NetServerConfig {
        workers: 8,
        ..Default::default()
    });
    let addr = server.local_addr();
    let start = Arc::new(Barrier::new(9));

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = match NetClient::connect(
                    addr,
                    NetClientConfig {
                        retry_on_disconnect: false,
                        ..Default::default()
                    },
                ) {
                    Ok(c) => c,
                    Err(_) => {
                        start.wait();
                        return 0u64;
                    }
                };
                start.wait();
                let mut ok = 0u64;
                for _ in 0..50 {
                    match client.ping() {
                        Ok(()) => ok += 1,
                        // Once the server winds down, every further
                        // attempt fails; stop.
                        Err(_) => break,
                    }
                }
                ok
            })
        })
        .collect();

    start.wait();
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();

    let client_ok: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let stats = server.transport_stats();
    // Zero-drop invariant: every response the server counts as served
    // was actually delivered to (and decoded by) a client.
    assert_eq!(stats.requests_served, client_ok);
}

#[test]
fn client_reconnects_for_idempotent_requests_only() {
    let mut server = serve(NetServerConfig::default());
    let addr = server.local_addr();
    let mut client = NetClient::connect_default(addr).unwrap();
    client.ping().unwrap();
    let shapes_before = client.info().unwrap().shapes;

    // Restart the server on the same address.
    server.shutdown();
    let mut server = NetServer::bind(
        addr,
        SearchServer::new(small_db()),
        NetServerConfig::default(),
    )
    .unwrap();

    // A non-idempotent request on the stale connection must execute
    // at most once. The usual path: the request frame reaches the dead
    // socket, the response read fails, and the client surfaces the
    // error instead of retrying. (If the OS rejects the very write,
    // the frame never reached any server and a retry is safe — then
    // it executes exactly once on the new server.)
    let retried = match client.insert("late", &primitives::box_mesh(Vec3::ONE)) {
        Err(err) => {
            assert!(err.is_disconnect(), "got: {err}");
            false
        }
        Ok(_) => true,
    };
    let mut probe = NetClient::connect_default(addr).unwrap();
    let expected = if retried {
        shapes_before + 1
    } else {
        shapes_before
    };
    assert_eq!(probe.info().unwrap().shapes, expected);

    // An idempotent request on the (again stale) client reconnects
    // transparently and succeeds.
    client.ping().unwrap();
    assert_eq!(client.info().unwrap().shapes, expected);
    server.shutdown();
}
